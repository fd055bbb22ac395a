"""VerificationSession: incremental verdicts must equal from-scratch ones.

The fresh baseline (``tests/literal_oracle.py``) deliberately bypasses the
session machinery: it builds a new literal-size encoding and a new
:class:`~repro.smt.Solver` per query, asserts everything, and checks once.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from literal_oracle import fresh_verdict, fresh_witness_count

from repro.core import VerificationSession, minimal_queue_size, verify
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh, mi_mesh
from repro.smt import Solver


def session_invariants_hold(session):
    """Every invariant evaluates true in the latest SAT model."""
    assignment = session.solver.model()._ints
    return all(inv.evaluate(assignment) for inv in session.invariants)


# ---------------------------------------------------------------------------
# Directed equivalence checks
# ---------------------------------------------------------------------------


# Designs past the running example, each just below and at its minimal
# queue size, for the differentials below: (builder, smaller, larger).
MESH_RESIZES = (
    (abstract_mi_mesh, 2, 3),
    (mi_mesh, 5, 6),
)


@lru_cache(maxsize=None)
def mesh_oracle(builder, size):
    """The literal-size oracle with invariants on one 2x2 mesh design."""
    network = builder(2, 2, queue_size=size).network
    return fresh_verdict(network, use_invariants=True)


def test_session_matches_one_shot_verify():
    # Sessions pin symbolic capacities; the oracle bakes the literal
    # sizes into a fresh formula, so the two share no encoding step.
    for size in (1, 2, 3):
        network = running_example(queue_size=size).network
        session = VerificationSession(network)
        assert session.verify().deadlock_free == fresh_verdict(network)
        session.add_invariants()
        assert session.verify().deadlock_free == fresh_verdict(
            network, use_invariants=True
        )
    for builder, *sizes in MESH_RESIZES:
        for size in sizes:
            network = builder(2, 2, queue_size=size).network
            assert verify(network).deadlock_free == mesh_oracle(builder, size)


def test_verify_channel_agrees_with_restricted_assertion():
    for network in (
        running_example().network,
        abstract_mi_mesh(2, 2, queue_size=3).network,
    ):
        session = VerificationSession(network)
        case_frees = []
        for case in session.encoding.cases:
            result = session.verify_case(case)
            expected = fresh_verdict(
                network, case_key=(case.kind, case.subject, case.color)
            )
            assert result.deadlock_free == expected, (network.name, case.label)
            case_frees.append(result.deadlock_free)
        # The full check fires iff some disjunct fires.
        assert session.verify().deadlock_free == all(case_frees)


def test_verify_channel_by_name():
    network = running_example().network
    session = VerificationSession(network)
    result = session.verify_channel("q0", "req")
    assert not result.deadlock_free
    assert result.witness is not None


def test_resize_queues_matches_rebuilt_network():
    session = VerificationSession(running_example(queue_size=1).network)
    session.add_invariants()
    for size in (1, 2, 3, 4, 2, 1):  # revisits exercise guard reuse
        session.resize_queues(size)
        incremental = session.verify()
        fresh = fresh_verdict(
            running_example(queue_size=size).network, use_invariants=True
        )
        assert incremental.deadlock_free == fresh, f"size {size}"
        if not incremental.deadlock_free:
            assert session_invariants_hold(session)
    for builder, smaller, larger in MESH_RESIZES:
        session = VerificationSession(builder(2, 2, queue_size=smaller).network)
        session.add_invariants()
        verdicts = []
        for size in (smaller, larger):
            session.resize_queues(size)
            verdicts.append(session.verify().deadlock_free)
            assert verdicts[-1] == mesh_oracle(builder, size), f"size {size}"
        # Just below and at the minimum: the oracle is not vacuous.
        assert verdicts == [False, True], builder.__name__


def test_resize_queues_per_queue_mapping():
    session = VerificationSession(running_example(queue_size=2).network)
    session.resize_queues({"q0": 3})
    assert session.queue_sizes == {"q0": 3, "q1": 2}
    assert not session.verify().deadlock_free  # block/idle only: candidates


def test_enumeration_is_scoped_and_session_reusable():
    network = running_example().network
    session = VerificationSession(network)
    first = list(session.enumerate_witnesses(limit=16))
    assert len(first) == fresh_witness_count(network, limit=16)
    assert len(first) >= 2  # the paper's two candidate shapes
    # Blocking clauses were popped: enumeration restarts from scratch ...
    second = list(session.enumerate_witnesses(limit=16))
    assert len(second) == len(first)
    # ... and the plain query still reports a candidate.
    assert not session.verify().deadlock_free
    session.add_invariants()
    assert session.verify().deadlock_free
    assert list(session.enumerate_witnesses(limit=4)) == []
    mesh = abstract_mi_mesh(2, 2, queue_size=2).network
    mesh_witnesses = VerificationSession(mesh).enumerate_witnesses(limit=12)
    assert len(list(mesh_witnesses)) == fresh_witness_count(mesh, limit=12) == 12


def test_queries_mid_enumeration_stay_sound():
    # A suspended enumeration's blocking clauses must be invisible to
    # other session queries (they are guarded by the generator's own
    # assumption literal).
    session = VerificationSession(running_example().network)
    baseline = [
        session.verify_case(case).deadlock_free
        for case in session.encoding.cases
    ]
    gen = session.enumerate_witnesses(limit=10)
    next(gen)
    next(gen)  # at least one blocking clause is now in the solver
    mid = [
        session.verify_case(case).deadlock_free
        for case in session.encoding.cases
    ]
    assert mid == baseline
    assert not session.verify().deadlock_free
    gen.close()


def test_interleaved_enumerations_do_not_corrupt_scopes():
    session = VerificationSession(running_example().network)
    first = list(session.enumerate_witnesses(limit=8))
    gen_a = session.enumerate_witnesses(limit=8)
    gen_b = session.enumerate_witnesses(limit=8)
    next(gen_a)
    seen_b = [next(gen_b)]
    gen_a.close()  # must retire gen_a's guard, not gen_b's
    seen_b.extend(gen_b)
    assert len(seen_b) == len(first)  # gen_b's blocking clauses survived
    assert not session.verify().deadlock_free  # base formula untouched


def test_sizing_preserves_non_uniform_builders():
    def build(size):
        example = running_example(queue_size=size)
        example.q_ack.size = 3  # pinned: builder is capacity-only but not uniform
        return example.network

    sizing = minimal_queue_size(build, max_size=8)
    # Oracle: a literal-size check of exactly what the builder produces.
    assert sizing.probes == {
        size: fresh_verdict(build(size), use_invariants=True)
        for size in sizing.probes
    }
    assert sizing.minimal_size == min(
        size for size, free in sizing.probes.items() if free
    )


def test_minimal_queue_size_probes_match_the_literal_oracle():
    sizing = minimal_queue_size(
        lambda size: abstract_mi_mesh(2, 2, queue_size=size).network
    )
    assert sizing.probes == {
        size: mesh_oracle(abstract_mi_mesh, size) for size in sizing.probes
    }
    assert sizing.minimal_size == 3


def test_sizing_rejects_builders_that_change_structure():
    from repro.core import sweep_queue_sizes
    from repro.xmas import Queue

    def build(size):
        network = running_example(queue_size=size).network
        if size > 1:
            network.add(Queue("extra", size=size))
        return network

    # Without invariants size 1 deadlocks, so the search probes size 2.
    for sizing in (
        lambda: minimal_queue_size(build, max_size=8, invariants="none"),
        lambda: sweep_queue_sizes(build, [1, 2], jobs=1),
    ):
        with pytest.raises(ValueError, match="changed network structure") as info:
            sizing()
        assert "incremental" not in str(info.value)


def test_witnesses_respect_queue_domains():
    session = VerificationSession(running_example(queue_size=2).network)
    for witness in session.enumerate_witnesses(limit=8):
        for queue in session.network.queues():
            held = sum(witness.queue_contents.get(queue.name, {}).values())
            assert 0 <= held <= session.queue_sizes[queue.name]


def test_every_query_goes_through_the_one_engine(monkeypatch):
    from repro.core.parallel import WorkerSession

    calls = {"engine": 0, "solver": 0, "restore": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        WorkerSession, "check", counted("engine", WorkerSession.check)
    )
    monkeypatch.setattr(Solver, "check", counted("solver", Solver.check))
    monkeypatch.setattr(
        WorkerSession, "__init__", counted("restore", WorkerSession.__init__)
    )
    session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
    assert calls == {"engine": 0, "solver": 0, "restore": 0}
    queue_case = next(
        case for case in session.encoding.cases if case.kind == "queue"
    )
    witnesses = session.enumerate_witnesses(limit=2)
    queries = [
        session.verify,
        lambda: session.verify_case(session.encoding.cases[0]),
        lambda: session.verify_channel(queue_case.subject, queue_case.color),
        lambda: next(witnesses),
        lambda: next(witnesses),
    ]
    for query in queries:
        before = dict(calls)
        query()
        assert calls["engine"] == before["engine"] + 1
        assert calls["solver"] == before["solver"] + 1
    witnesses.close()
    assert calls["restore"] == 0


@pytest.mark.parametrize("invariants", [False, True], ids=["sat", "unsat"])
def test_unchanged_pins_stay_on_the_trail_between_cases(monkeypatch, invariants):
    """Case queries under unchanged pins keep the pins' assumption levels:
    the engine assumes the pins first, and the CDCL core rewinds only to
    the first assumption that changed (the case guard).  Without
    invariants every case is a candidate; with them most are refuted, and
    each core names only that query's assumptions."""
    from repro.smt.sat import Cdcl

    solves = []  # per solve(): [assumptions, entry rewind level, decided]
    solve, enqueue, backjump = Cdcl.solve, Cdcl._enqueue_code, Cdcl._backjump

    def spy_solve(self, *args, **kwargs):
        solves.append([tuple(kwargs.get("assumptions", ())), None, set()])
        return solve(self, *args, **kwargs)

    def spy_enqueue(self, code, reason):
        if reason == -1 and self.decision_level:  # a decision
            solves[-1][2].add(-(code >> 1) if code & 1 else code >> 1)
        return enqueue(self, code, reason)

    def spy_backjump(self, level):
        if solves and solves[-1][1] is None:
            solves[-1][1] = level
        return backjump(self, level)

    monkeypatch.setattr(Cdcl, "solve", spy_solve)
    monkeypatch.setattr(Cdcl, "_enqueue_code", spy_enqueue)
    monkeypatch.setattr(Cdcl, "_backjump", spy_backjump)
    session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
    if invariants:
        session.add_invariants()
    pin_labels = {f"cap[{q}=={s}]" for q, s in session.queue_sizes.items()}
    refuted = 0
    for case in session.encoding.cases:
        result = session.verify_case(case)
        if result.deadlock_free:
            refuted += 1
            assert set(result.unsat_core) <= pin_labels | {case.label}
    assert (refuted > 0) is invariants
    (first, _, _), (second, kept, decided) = solves[0], solves[1]
    pins = set(first) & set(second)
    assert len(pins) == len(session.queue_sizes)
    assert kept == len(pins)
    if not invariants:
        # (A refutation may learn ``¬pin ∨ ¬guard``, which asserts at the
        # pin's level and re-decides the pins above it — by design.)
        assert not pins & decided, "a pin was decided again"


# ---------------------------------------------------------------------------
# Randomized differential test: any query order, any assumption order
# ---------------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.just(("verify",)),
        st.just(("invariants",)),
        st.tuples(st.just("resize"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("case"), st.integers(min_value=0, max_value=100)),
        st.tuples(st.just("enumerate"), st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=6,
)


@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_session_equals_fresh_solver_across_op_orders(ops):
    session = VerificationSession(running_example(queue_size=2).network)
    size = 2
    invariants_on = False

    for op in ops:
        if op[0] == "invariants":
            session.add_invariants()
            invariants_on = True
        elif op[0] == "resize":
            size = op[1]
            session.resize_queues(size)
        elif op[0] == "verify":
            network = running_example(queue_size=size).network
            expected = fresh_verdict(network, use_invariants=invariants_on)
            result = session.verify()
            assert result.deadlock_free == expected
            if not result.deadlock_free:
                assert result.witness is not None
                assert session_invariants_hold(session)
        elif op[0] == "case":
            case = session.encoding.cases[op[1] % len(session.encoding.cases)]
            network = running_example(queue_size=size).network
            expected = fresh_verdict(
                network,
                use_invariants=invariants_on,
                case_key=(case.kind, case.subject, case.color),
            )
            assert session.verify_case(case).deadlock_free == expected
        elif op[0] == "enumerate":
            witnesses = list(session.enumerate_witnesses(limit=op[1]))
            network = running_example(queue_size=size).network
            if fresh_verdict(network, use_invariants=invariants_on):
                assert witnesses == []
            else:
                assert witnesses


# ---------------------------------------------------------------------------
# Cases answered from an earlier deadlock model (Solver "Model reuse")
# ---------------------------------------------------------------------------


def _witness_holds_case(case, witness) -> bool:
    """The witness makes the case's disjunct true: a queue case's queue
    holds the colour and its head is blocked, a source case's source is
    blocked."""
    if case.kind == "queue":
        return (
            witness.queue_contents[case.subject].get(case.color, 0) >= 1
            and f"{case.subject} head {case.color!r}" in witness.blocked_channels
        )
    return f"source {case.subject} {case.color!r}" in witness.blocked_channels


def test_a_reused_witness_holds_its_case():
    session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
    session.add_invariants()
    results = session.verify_all_cases()
    reused = [r for r in results if r.stats["solver"]["reused"]]
    assert reused  # the fan-out does answer cases from earlier models
    for case, result in zip(session.encoding.cases, results):
        if not result.deadlock_free:
            assert _witness_holds_case(case, result.witness), case.label
    for result in reused:
        assert not result.deadlock_free
        assert result.stats["solver"]["decisions"] == 0


def test_pooled_and_sequential_fan_outs_agree_under_reuse():
    network = abstract_mi_mesh(2, 2, queue_size=2).network
    sequential = VerificationSession(network)
    sequential.add_invariants()
    expected = [r.verdict for r in sequential.verify_all_cases()]
    assert any(r.stats["solver"]["reused"] for r in sequential.verify_all_cases())
    with VerificationSession(
        network, jobs=2, backend="thread", force_pool=True
    ) as pooled:
        pooled.add_invariants()
        assert [r.verdict for r in pooled.verify_all_cases()] == expected
    assert len(set(expected)) == 2  # both verdicts occur
