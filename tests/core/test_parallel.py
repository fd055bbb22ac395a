"""A pooled VerificationSession must be observationally equal to a
sequential one.

With ``jobs > 1`` the session sends its fan-outs through serialized
session snapshots and worker rehydration, so these tests are really
end-to-end checks of the whole chain: spec build → snapshot → worker
restore → guard-name query → payload merge.  Single queries stay on the
session's own solver and never start a pool.  Thread-backend pools keep
the hypothesis differentials fast (same code path, no fork cost); a
couple of directed tests cross real process boundaries.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Deadline,
    SessionSpec,
    Verdict,
    VerificationSession,
    default_jobs,
    nested_jobs,
    sweep_queue_sizes,
    verdict_sha,
)
from repro.core.engine import ANY_CASE_LABEL
from repro.core.parallel import WorkerSession, gather, start_pool
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh


def _network(queue_size=2):
    return running_example(queue_size=queue_size).network


# ---------------------------------------------------------------------------
# Directed equivalence
# ---------------------------------------------------------------------------


def test_verify_all_cases_matches_sequential_across_job_counts():
    spec = SessionSpec(_network())
    sequential = VerificationSession(spec=spec)
    expected = sequential.verify_all_cases()
    for jobs in (1, 2, 4):
        with VerificationSession(
            spec=spec, jobs=jobs, backend="thread"
        ) as pool:
            got = pool.verify_all_cases()
            assert [r.verdict for r in got] == [r.verdict for r in expected]
            # Witnesses are rebuilt parent-side from worker value slices;
            # shape (not model identity) must match the sequential path.
            for seq_r, par_r in zip(expected, got):
                assert (seq_r.witness is None) == (par_r.witness is None)
                if par_r.witness is not None:
                    assert set(par_r.witness.queue_contents) == set(
                        seq_r.witness.queue_contents
                    )


def test_process_backend_matches_thread_backend():
    spec = SessionSpec(_network())
    with VerificationSession(
        spec=spec, jobs=2, backend="process"
    ) as pool:
        process_results = pool.verify_all_cases()
        pool.resize_queues(3)
        process_resized = pool.verify()
    sequential = VerificationSession(spec=spec)
    assert [r.verdict for r in process_results] == [
        r.verdict for r in sequential.verify_all_cases()
    ]
    sequential.resize_queues(3)
    assert process_resized.verdict == sequential.verify().verdict


@pytest.mark.slow
def test_process_pool_answers_the_3x3_mesh_like_the_sequential_session():
    """Every case of the 3x3 abstract-MI mesh on a two-process pool, and
    the 2x2 mesh's size sweep sharded over two processes."""
    spec = SessionSpec(abstract_mi_mesh(3, 3, queue_size=2).network)
    sequential = VerificationSession(spec=spec).verify_all_cases()
    with VerificationSession(
        spec=spec, jobs=2, backend="process", force_pool=True
    ) as pool:
        pooled = pool.verify_all_cases()
    assert [r.verdict for r in pooled] == [r.verdict for r in sequential]
    for seq_r, par_r in zip(sequential, pooled):
        assert (seq_r.witness is None) == (par_r.witness is None)
    assert verdict_sha([r.verdict.value for r in sequential]) == "61f3029f483106db"

    def build(size):
        return abstract_mi_mesh(2, 2, queue_size=size).network

    swept = sweep_queue_sizes(build, range(1, 7), jobs=1)
    sharded = sweep_queue_sizes(build, range(1, 7), jobs=2, backend="process")
    assert sharded.probes == swept.probes
    assert swept.minimal_size == 3


def test_single_query_api_parity():
    spec = SessionSpec(_network())
    sequential = VerificationSession(spec=spec)
    with VerificationSession(
        spec=spec, jobs=2, backend="thread"
    ) as pool:
        assert pool.verify().verdict == sequential.verify().verdict
        assert (
            pool.verify_channel("q0", "req").verdict
            == sequential.verify_channel("q0", "req").verdict
        )
        for case in spec.encoding.cases:
            assert (
                pool.verify_case(case).verdict
                == sequential.verify_case(case).verdict
            ), case.label


def test_enumeration_delegates_and_stays_consistent():
    spec = SessionSpec(_network())
    with VerificationSession(
        spec=spec, jobs=2, backend="thread"
    ) as pool:
        witnesses = list(pool.enumerate_witnesses(limit=8))
    expected = list(
        VerificationSession(spec=spec).enumerate_witnesses(limit=8)
    )
    assert len(witnesses) == len(expected) >= 2


def test_add_invariants_restarts_workers_with_strengthened_encoding():
    with VerificationSession(
        _network(), jobs=2, backend="thread", force_pool=True
    ) as pool:
        assert not pool.verify().deadlock_free  # block/idle only: candidate
        assert not all(r.deadlock_free for r in pool.verify_all_cases())
        executor = pool._executor
        pool.add_invariants()
        result = pool.verify()
        assert result.deadlock_free
        assert result.stats["invariant_count"] == len(pool.invariants) > 0
        # The next fan-out restarts the workers from the strengthened
        # encoding.
        fanned = pool.verify_all_cases()
        assert pool._executor is not executor
        assert all(r.deadlock_free for r in fanned)
        assert fanned[0].stats["invariant_count"] == len(pool.invariants)


# ---------------------------------------------------------------------------
# Single queries stay on the session; one deadline bounds a pooled fan-out
# ---------------------------------------------------------------------------


def test_opening_a_pooled_session_starts_no_process():
    before = set(multiprocessing.active_children())
    session = VerificationSession(_network(), jobs=2)
    assert set(multiprocessing.active_children()) == before
    assert session.stats()["pool_running"] is False
    session.close()


def test_single_queries_on_a_pooled_session_start_no_pool():
    spec = SessionSpec(_network())
    local = VerificationSession(spec=spec)
    before = set(multiprocessing.active_children())
    with VerificationSession(spec=spec, jobs=2) as pooled:
        assert pooled.verify().verdict == local.verify().verdict
        for case in spec.encoding.cases:
            assert (
                pooled.verify_case(case).verdict
                == local.verify_case(case).verdict
            ), case.label
        assert len(list(pooled.enumerate_witnesses(limit=8))) == len(
            list(local.enumerate_witnesses(limit=8))
        )
        assert pooled.stats()["pool_running"] is False
        assert set(multiprocessing.active_children()) == before


def test_one_deadline_bounds_a_pooled_fan_out():
    # Self-calibrating: a fan-out given a twentieth of the time the
    # unbounded one took must return within a quarter of it, priming
    # query and pool start included; what it could not decide is TIMEOUT.
    spec = SessionSpec(abstract_mi_mesh(3, 3, queue_size=2).network)

    def fan_out(seconds=None):
        with VerificationSession(spec=spec, jobs=2, force_pool=True) as session:
            start = time.perf_counter()
            deadline = None if seconds is None else Deadline(seconds=seconds)
            results = session.verify_all_cases(deadline=deadline)
            return results, time.perf_counter() - start

    unbounded, full = fan_out()
    assert not any(r.timed_out for r in unbounded)
    bounded, wall = fan_out(full / 20)
    assert wall < full / 4, (wall, full)
    for got, want in zip(bounded, unbounded):
        assert got.verdict in (want.verdict, Verdict.TIMEOUT)


# ---------------------------------------------------------------------------
# Unsat-core surfacing (satellite)
# ---------------------------------------------------------------------------


def test_unsat_core_names_responsible_guards_sequential_and_parallel():
    spec = SessionSpec(_network())
    sequential = VerificationSession(spec=spec)
    sequential.add_invariants()
    result = sequential.verify()
    assert result.deadlock_free
    assert result.unsat_core  # non-empty: the assumptions were involved
    assert ANY_CASE_LABEL in result.unsat_core
    assert result.stats["formula_unsat"] is False
    valid_labels = (
        {ANY_CASE_LABEL}
        | {case.label for case in spec.encoding.cases}
        | {f"cap[{q}=={s}]" for q in sequential.queue_sizes for s in range(10)}
    )
    assert set(result.unsat_core) <= valid_labels

    with VerificationSession(
        spec=spec, jobs=2, backend="thread"
    ) as pool:
        par = pool.verify()
    assert par.deadlock_free
    assert ANY_CASE_LABEL in par.unsat_core
    assert set(par.unsat_core) <= valid_labels

    # Per-case query: the responsible case is named.
    case = spec.encoding.cases[0]
    case_result = sequential.verify_case(case)
    assert case_result.deadlock_free
    assert case.label in case_result.unsat_core


def test_sat_results_carry_no_core():
    result = VerificationSession(_network()).verify()
    assert not result.deadlock_free
    assert result.unsat_core is None


# ---------------------------------------------------------------------------
# Session snapshot round-trip (satellite): snapshot → rehydrate →
# identical verdict, across sizes
# ---------------------------------------------------------------------------

sizes_lists = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=3
)


@given(sizes=sizes_lists, with_invariants=st.booleans())
@settings(max_examples=15, deadline=None)
def test_session_snapshot_rehydration_matches_session(sizes, with_invariants):
    spec = SessionSpec(_network())
    session = VerificationSession(spec=spec)
    if with_invariants:
        session.add_invariants()
    worker = WorkerSession(spec.snapshot())
    # A bare snapshot answers the as-built configuration with no parent
    # involvement (target None = master guard, default sizes).
    as_built = worker.check(None, want_witness=False)
    assert (as_built[0] == "unsat") == session.verify().deadlock_free
    for size in sizes:
        session.resize_queues(size)
        expected = session.verify()
        payload = worker.check(
            None,
            tuple(sorted(session.queue_sizes.items())),
            want_witness=False,
        )
        assert (payload[0] == "unsat") == expected.deadlock_free
        if payload[0] == "unsat":
            # Worker cores name the same guard vocabulary.
            labels = {
                spec.encoding.any_guard.name,
                *(case.guard.name for case in spec.encoding.cases),
                *(f"cap[{q}=={s}]" for q in session.queue_sizes for s in range(6)),
            }
            assert set(payload[1]) <= labels


# ---------------------------------------------------------------------------
# Randomized differential: any op order, any job count
# ---------------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.just(("verify",)),
        st.just(("invariants",)),
        st.just(("all_cases",)),
        st.tuples(st.just("resize"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("case"), st.integers(min_value=0, max_value=100)),
    ),
    min_size=1,
    max_size=5,
)


@given(ops=operations, jobs=st.sampled_from([1, 2, 4]))
@settings(max_examples=20, deadline=None)
def test_parallel_equals_sequential_across_op_orders(ops, jobs):
    spec = SessionSpec(_network())
    sequential = VerificationSession(spec=spec)
    with VerificationSession(
        spec=spec, jobs=jobs, backend="thread"
    ) as pool:
        for op in ops:
            if op[0] == "invariants":
                sequential.add_invariants()
                pool.add_invariants()
            elif op[0] == "resize":
                sequential.resize_queues(op[1])
                pool.resize_queues(op[1])
                assert pool.queue_sizes == sequential.queue_sizes
            elif op[0] == "verify":
                seq_r, par_r = sequential.verify(), pool.verify()
                assert par_r.verdict == seq_r.verdict
                assert (par_r.witness is None) == (seq_r.witness is None)
            elif op[0] == "case":
                case = spec.encoding.cases[op[1] % len(spec.encoding.cases)]
                assert (
                    pool.verify_case(case).verdict
                    == sequential.verify_case(case).verdict
                )
            elif op[0] == "all_cases":
                seq_all = sequential.verify_all_cases()
                par_all = pool.verify_all_cases()
                assert [r.verdict for r in par_all] == [
                    r.verdict for r in seq_all
                ]


# ---------------------------------------------------------------------------
# Sharded sweeps
# ---------------------------------------------------------------------------


def test_sharded_sweep_matches_sequential_sweep():
    def build(size):
        return running_example(queue_size=size).network

    sequential = sweep_queue_sizes(build, range(1, 5), jobs=1)
    for jobs in (2, 3):
        sharded = sweep_queue_sizes(
            build, range(1, 5), jobs=jobs, backend="thread"
        )
        assert sharded.probes == sequential.probes
        assert sharded.minimal_size == sequential.minimal_size
        assert set(sharded.results) == set(sequential.results)


@pytest.mark.parametrize("invariants", ["eager", "none"])
def test_forced_pool_probe_shards_match_sequential_sweep(invariants):
    # Real pool workers (never the inline fallback) answer every shard
    # from the pool snapshot; eager mode bakes the rows into it first.
    def build(size):
        return running_example(queue_size=size).network

    sequential = sweep_queue_sizes(
        build, range(1, 4), jobs=1, invariants=invariants
    )
    with VerificationSession(
        build(1), jobs=2, backend="thread", force_pool=True
    ) as session:
        if invariants == "eager":
            session.add_invariants()
        shards = session.probe_shards(
            [
                [{"q0": 1, "q1": 1}, {"q0": 3, "q1": 3}],
                [{"q0": 2, "q1": 2}],
            ]
        )
        assert session.stats()["pool_running"]
    flat = {1: shards[0][0], 3: shards[0][1], 2: shards[1][0]}
    for size, result in flat.items():
        assert result.deadlock_free == sequential.probes[size], size
        assert len(result.invariants) == sequential.invariants_generated


def test_sweep_without_invariants_differs_and_still_merges():
    def build(size):
        return running_example(queue_size=size).network

    plain = sweep_queue_sizes(
        build, range(1, 4), jobs=2, backend="thread", invariants="none"
    )
    # Block/idle alone reports candidates everywhere on this example.
    assert plain.minimal_size is None
    assert set(plain.probes) == {1, 2, 3}
    assert "no deadlock-free queue size" in plain.pretty()


def test_default_jobs_fan_outs_reuse_one_executor():
    with VerificationSession(
        _network(), jobs=2, backend="thread", force_pool=True
    ) as pool:
        pool.verify_all_cases()
        executor = pool._executor
        assert executor is not None
        pool.verify_all_cases()  # the second fan-out reuses the pool
        assert pool._executor is executor


def test_thread_pool_starts_from_the_snapshot():
    # A thread worker restores the snapshot just as a process worker
    # does, so from a warm snapshot it answers a run of jobs with the
    # payloads of a WorkerSession restored from the same snapshot:
    # verdict, witness and every search count (only the elapsed time
    # differs).
    session = VerificationSession(abstract_mi_mesh(2, 2, queue_size=2).network)
    session.add_invariants()
    session.verify()
    snapshot = session.snapshot()
    assert snapshot.solver.learned and snapshot.solver.phases
    sizes = {q: 3 for q in session.queue_sizes}
    jobs = [
        ("check", None, None, True),
        ("check", 0, tuple(sizes.items()), False),
        ("shard", ((None, None), (None, tuple(sizes.items()))), True),
    ]
    local_worker = WorkerSession(snapshot)
    executor = start_pool(snapshot, 1, "thread")
    try:
        for job in jobs:
            pooled = gather(executor, [job])[0]
            local = local_worker.run(job)
            if job[0] == "check":
                pooled, local = [pooled], [local]
            assert [p[:4] for p in pooled] == [p[:4] for p in local]
            assert all(p[3]["propagations"] > 0 for p in local)
    finally:
        executor.shutdown(wait=True)
    verdicts = [p[0] for p in WorkerSession(snapshot).run(jobs[2])]
    assert verdicts == ["sat", "unsat"]


def test_a_check_that_starts_after_close_refuses():
    # run() tests for a closed session before it dispatches; a close()
    # landing between that test and the check's own read of the solver
    # must still refuse with RuntimeError, not fail on a missing solver.
    entry = WorkerSession(SessionSpec(_network()).snapshot())
    entry.close()
    with pytest.raises(RuntimeError):
        entry.check(None, None, False)


def test_capacity_pins_follow_the_snapshot_queue_order():
    # The pins go in the snapshot's queue order whatever order the
    # caller lists them in, so the same probe searches the same way from
    # every entry point; a queue left out raises instead of floating.
    spec = SessionSpec(abstract_mi_mesh(2, 2, queue_size=2).network)
    spec.generate_invariants()
    snapshot = spec.snapshot()
    sizes = [(name, 3) for name, _ in snapshot.default_sizes]
    forward = WorkerSession(snapshot).check(None, tuple(sizes), False)
    backward = WorkerSession(snapshot).check(None, tuple(sizes[::-1]), False)
    assert forward[0] == "unsat"  # the core lists the pins in passing order
    assert forward[:4] == backward[:4]
    with pytest.raises(KeyError):
        WorkerSession(snapshot).check(None, tuple(sizes[1:]), False)


def test_sweep_want_witness_is_consistent_across_job_counts():
    def build(size):
        return running_example(queue_size=size).network

    for jobs in (1, 2):
        swept = sweep_queue_sizes(
            build, range(1, 3), jobs=jobs, backend="thread",
            invariants="none", want_witness=False,
        )
        assert all(r.witness is None for r in swept.results.values()), jobs


# ---------------------------------------------------------------------------
# Jobs budgeting: ADVOCAT_JOBS precedence and the nested-jobs split
# ---------------------------------------------------------------------------


def test_default_jobs_env_override_beats_cpu_count(monkeypatch):
    monkeypatch.setenv("ADVOCAT_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.delenv("ADVOCAT_JOBS")
    assert default_jobs() == max(1, os.cpu_count() or 1)


def test_default_jobs_rejects_invalid_env(monkeypatch):
    for bad in ("0", "-2", "banana"):
        monkeypatch.setenv("ADVOCAT_JOBS", bad)
        with pytest.raises(ValueError):
            default_jobs()
    monkeypatch.setenv("ADVOCAT_JOBS", "")  # empty: treated as unset
    assert default_jobs() == max(1, os.cpu_count() or 1)


def test_explicit_jobs_argument_beats_env(monkeypatch):
    monkeypatch.setenv("ADVOCAT_JOBS", "1")
    # The env cap shapes defaults only: it must not demote an explicit
    # jobs=2 request to the inline fallback at dispatch time (simulate a
    # multi-core machine so the physical-CPU fallback stays out of play).
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with VerificationSession(
        _network(), jobs=2, backend="thread"
    ) as pool:
        assert pool.jobs == 2
        pool.verify_all_cases()
        assert pool._executor is not None  # real pool, not inline fallback


def test_nested_jobs_splits_the_budget():
    assert nested_jobs(2, budget=8) == 4
    assert nested_jobs(3, budget=8) == 2
    assert nested_jobs(8, budget=4) == 1  # never below 1
    with pytest.raises(ValueError):
        nested_jobs(0)


def test_nested_jobs_defaults_to_env_budget(monkeypatch):
    monkeypatch.setenv("ADVOCAT_JOBS", "6")
    assert nested_jobs(2) == 3

