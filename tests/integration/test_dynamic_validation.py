"""Dynamic cross-validation: static analyses vs executable semantics.

The strongest correctness evidence in the repository: the invariants that
Gaussian elimination derives *statically* must hold in every state of
every *actual execution*, and the color sets that T-derivation computes
must cover every packet that ever materialises in a queue.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from random_walk import random_run

from repro.core import VarPool, derive_colors, generate_invariants
from repro.mc import Executable
from repro.netlib import running_example, token_ring
from repro.protocols import abstract_mi_mesh, mi_mesh


def assert_invariants_hold_along_run(network, steps, seed):
    pool = VarPool()
    colors = derive_colors(network)
    invariants = generate_invariants(network, colors, pool)
    assert invariants
    space = Executable(network).space
    queues = {q.name: q for q in network.queues()}
    automata = {a.name: a for a in network.automata()}

    def valuation(state):
        assignment = {}
        for name, local in zip(space.automaton_names, state.automaton_states):
            for s in automata[name].states:
                assignment[pool.state(automata[name], s)] = int(s == local)
        for name, contents in zip(space.queue_names, state.queue_contents):
            for color in set(contents):
                assignment[pool.occupancy(queues[name], color)] = contents.count(
                    color
                )
        return assignment

    states = [space.initial_state()]
    for _, state in random_run(network, steps=steps, seed=seed):
        states.append(state)
    for state in states:
        assignment = valuation(state)
        for invariant in invariants:
            assert invariant.evaluate(assignment), (
                f"invariant {invariant.pretty()} violated in "
                f"{state.describe(space)}"
            )


def assert_colors_cover_run(network, steps, seed):
    colors = derive_colors(network)
    space = Executable(network).space
    queues = {q.name: q for q in network.queues()}
    for _, state in random_run(network, steps=steps, seed=seed):
        for name, contents in zip(space.queue_names, state.queue_contents):
            derivable = colors.of(network.channel_of(queues[name].i))
            for packet in contents:
                assert packet in derivable, (
                    f"packet {packet!r} in {name} outside derived colors"
                )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_running_example_invariants_hold_dynamically(seed):
    assert_invariants_hold_along_run(running_example().network, 60, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_abstract_mi_invariants_hold_dynamically(seed):
    network = abstract_mi_mesh(2, 2, queue_size=3).network
    assert_invariants_hold_along_run(network, 80, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_full_mi_invariants_hold_dynamically(seed):
    network = mi_mesh(2, 2, queue_size=3).network
    assert_invariants_hold_along_run(network, 80, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_colors_cover_abstract_mi_runs(seed):
    assert_colors_cover_run(abstract_mi_mesh(2, 2, queue_size=2).network, 80, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_colors_cover_full_mi_runs(seed):
    assert_colors_cover_run(mi_mesh(2, 2, queue_size=2).network, 80, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_colors_cover_token_ring_runs(seed):
    assert_colors_cover_run(token_ring(4, queue_size=2), 50, seed)


def test_simulator_stops_in_dead_state():
    from repro.xmas import NetworkBuilder

    builder = NetworkBuilder()
    src = builder.source("src", colors={"x"})
    q = builder.queue("q", 1)
    snk = builder.sink("snk", fair=False)
    builder.pipeline(src.o, q.i, q.o, snk.i)
    network = builder.build()
    steps = list(random_run(network, steps=10, seed=1))
    assert len(steps) == 1  # inject once, then stuck forever
