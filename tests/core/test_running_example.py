"""E1/E2: the paper's running example, end to end.

Section 1 derives (automatically) the cross-layer invariant

    #q0.req + #q1.ack = S.s1 - T.t1     (equivalently  S.s1 + T.t0 - 1)

and Section 3 reports exactly two deadlock candidates without invariants:
(s1, t0) with both queues empty, and (s0, t1) with q0 full of reqs and q1
full of acks — both unreachable, both ruled out by the invariant.
"""

from fractions import Fraction

from linalg.row_space import row_space_contains

from repro.core import (
    Verdict,
    VarPool,
    derive_colors,
    generate_invariants,
    verify,
)
from repro.core.result import Invariant
from repro.linalg import SparseVector
from repro.netlib import running_example


def invariant_rows(invariants):
    """Invariants as sparse rows over variable uid columns (plus const=0)."""
    rows = []
    for inv in invariants:
        entries = {var.uid: coeff for var, coeff in inv.coeffs}
        if inv.constant:
            entries[0] = inv.constant
        rows.append(SparseVector(entries))
    return rows


def test_paper_invariant_is_derived():
    example = running_example()
    net = example.network
    pool = VarPool()
    colors = derive_colors(net)
    invariants = generate_invariants(net, colors, pool)
    assert invariants, "expected at least one invariant"

    q0_req = pool.occupancy(example.q_req, "req")
    q1_ack = pool.occupancy(example.q_ack, "ack")
    s_s1 = pool.state(example.sender, "s1")
    t_t1 = pool.state(example.receiver, "t1")
    # #q0.req + #q1.ack - S.s1 + T.t1 = 0
    target = SparseVector(
        {q0_req.uid: 1, q1_ack.uid: 1, s_s1.uid: -1, t_t1.uid: 1}
    )
    assert row_space_contains(invariant_rows(invariants), target), (
        "the paper's running-example invariant must be in the span of the "
        "generated invariants"
    )


def test_state_sum_invariants_present():
    example = running_example()
    net = example.network
    pool = VarPool()
    invariants = generate_invariants(net, derive_colors(net), pool)
    rows = invariant_rows(invariants)
    for automaton in (example.sender, example.receiver):
        entries = {pool.state(automaton, s).uid: 1 for s in automaton.states}
        entries[0] = -1  # constant column: Σ A.s - 1 = 0
        assert row_space_contains(rows, SparseVector(entries))


def test_invariants_hold_in_initial_state():
    example = running_example()
    net = example.network
    pool = VarPool()
    invariants = generate_invariants(net, derive_colors(net), pool)
    assignment = {}
    for automaton in net.automata():
        for state in automaton.states:
            assignment[pool.state(automaton, state)] = int(state == automaton.initial)
    # occupancies default to 0 in Invariant.evaluate
    for invariant in invariants:
        assert invariant.evaluate(assignment), invariant.pretty()


def test_running_example_deadlock_free_with_invariants():
    example = running_example()
    result = verify(example.network, use_invariants=True)
    assert result.verdict is Verdict.DEADLOCK_FREE
    assert result.stats["invariant_count"] >= 1


def test_without_invariants_candidates_appear():
    """Section 3: unfolding block/idle alone yields (unreachable) candidates."""
    example = running_example()
    result = verify(example.network, use_invariants=False)
    assert result.verdict is Verdict.DEADLOCK_CANDIDATE
    witness = result.witness
    assert witness is not None
    states = witness.automaton_states
    contents = witness.queue_contents
    total = sum(
        sum(queue.values()) for queue in witness.queue_contents.values()
    )
    # The two candidates the paper reports: empty queues in (s1, t0), or
    # full queues (q0: reqs, q1: acks) in (s0, t1).
    if total == 0:
        assert states == {"S": "s1", "T": "t0"}
    else:
        assert states == {"S": "s0", "T": "t1"}
        assert contents["q0"] == {"req": 2}
        assert contents["q1"] == {"ack": 2}


def test_candidates_match_paper_exactly():
    """Enumerate SMT models: exactly the paper's two candidate *shapes*."""
    from literal_oracle import LiteralEncoding

    from repro.smt import Result, conj, eq, neg

    example = running_example()
    literal = LiteralEncoding(example.network)
    pool = literal.pool
    solver = literal.solver(literal.encoding.assertion)

    s1 = pool.state(example.sender, "s1")
    t1 = pool.state(example.receiver, "t1")
    q0 = pool.occupancy(example.q_req, "req")
    q1 = pool.occupancy(example.q_ack, "ack")

    seen = set()
    for _ in range(16):
        if solver.check() != Result.SAT:
            break
        model = solver.model()
        shape = (model[s1], model[t1], model[q0], model[q1])
        seen.add(shape)
        # Block this exact (state, occupancy) shape and look for another.
        solver.add(
            neg(
                conj(
                    eq(s1, model[s1]),
                    eq(t1, model[t1]),
                    eq(q0, model[q0]),
                    eq(q1, model[q1]),
                )
            )
        )
    else:
        raise AssertionError("candidate enumeration did not converge")

    assert (1, 0, 0, 0) in seen, "paper candidate (s1,t0) with empty queues"
    assert (0, 1, 2, 2) in seen, "paper candidate (s0,t1) with full queues"


def test_invariant_pretty_roundtrip():
    example = running_example()
    net = example.network
    pool = VarPool()
    invariants = generate_invariants(net, derive_colors(net), pool)
    for inv in invariants:
        text = inv.pretty()
        assert "=" in text
        assert isinstance(hash(inv), int)


def test_invariant_term_feeds_solver():
    from repro.smt import Result, Solver

    inv = Invariant({}, Fraction(0))
    solver = Solver()
    solver.add(inv.term())
    assert solver.check() == Result.SAT
