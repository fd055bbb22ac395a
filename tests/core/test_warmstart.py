"""Warm snapshots and the single-CPU pool fallback.

A warm snapshot ships the parent's learned clauses (demoted below glue
protection) and saved phases; both are pure search heuristics, so a warm
worker must answer every query exactly like a cold one — and like the
sequential session — across job counts.  The fallback satellite pins the
in-process path: on one CPU (or one worker) a session's fan-outs answer on
its own solver with no executor, invariants included.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SessionSpec,
    VerificationSession,
    sweep_queue_sizes,
)
from repro.core.parallel import WorkerSession, default_jobs
from repro.netlib import running_example
from repro.smt import snapshot_solver


def _network(queue_size=2):
    return running_example(queue_size=queue_size).network


# ---------------------------------------------------------------------------
# Warm == cold, across the worker protocol
# ---------------------------------------------------------------------------


def test_warm_worker_answers_every_case_like_a_cold_one():
    spec = SessionSpec(_network())
    parent = VerificationSession(spec=spec)
    parent.verify()  # accumulate learned state worth shipping
    cold = WorkerSession(spec.snapshot())
    warm = WorkerSession(parent.snapshot())
    assert len(parent.snapshot().solver.learned) > 0
    for target in (None, *range(len(spec.encoding.cases))):
        for size in (1, 2, 3):
            sizes = tuple(
                sorted({q: size for q in spec.initial_sizes}.items())
            )
            cold_payload = cold.check(target, sizes, want_witness=False)
            warm_payload = warm.check(target, sizes, want_witness=False)
            assert cold_payload[0] == warm_payload[0], (target, size)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    jobs=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=15, deadline=None)
def test_warm_pool_equals_sequential_across_job_counts(sizes, jobs):
    spec = SessionSpec(_network())
    sequential = VerificationSession(spec=spec)
    with VerificationSession(
        spec=spec, jobs=jobs, backend="thread"
    ) as pool:
        for size in sizes:
            sequential.resize_queues(size)
            pool.resize_queues(size)
            seq_all = sequential.verify_all_cases()
            par_all = pool.verify_all_cases()
            assert [r.verdict for r in par_all] == [
                r.verdict for r in seq_all
            ]


def test_forced_pool_still_matches_inline_fallback():
    spec = SessionSpec(_network())
    with VerificationSession(
        spec=spec, jobs=2, backend="thread", force_pool=True
    ) as pool:
        forced = pool.verify_all_cases()
        assert pool._executor is not None  # a real executor ran
    with VerificationSession(
        spec=spec, jobs=1, backend="thread"
    ) as inline:
        fallback = inline.verify_all_cases()
        assert inline._executor is None
    assert [r.verdict for r in forced] == [r.verdict for r in fallback]


# ---------------------------------------------------------------------------
# Single-CPU / single-worker fallback (satellite)
# ---------------------------------------------------------------------------


def test_default_jobs_tracks_cpu_count():
    assert default_jobs() == max(1, os.cpu_count() or 1)


def test_single_worker_runs_inline_without_an_executor():
    with VerificationSession(_network(), backend="thread") as pool:
        assert pool.jobs == 1  # the default
        result = pool.verify()
        assert not result.deadlock_free
        assert not all(r.deadlock_free for r in pool.verify_all_cases())
        assert pool.stats()["pool_running"] is False


def test_inline_fallback_heals_invariant_staleness():
    with VerificationSession(
        _network(), jobs=1, backend="thread"
    ) as pool:
        assert not pool.verify().deadlock_free  # block/idle only
        pool.add_invariants()
        result = pool.verify()
        assert result.deadlock_free
        assert result.stats["invariant_count"] == len(pool.invariants) > 0
        # The inline fan-out answers from the strengthened solver too.
        assert all(r.deadlock_free for r in pool.verify_all_cases())


# ---------------------------------------------------------------------------
# Phase-seeded sweeps stay observationally identical
# ---------------------------------------------------------------------------


def test_sweep_verdicts_identical_with_and_without_reduction():
    def build(size):
        return running_example(queue_size=size).network

    swept = sweep_queue_sizes(build, range(1, 5), jobs=1)
    plain = sweep_queue_sizes(
        build, range(1, 5), jobs=1, clause_reduction=False
    )
    assert swept.probes == plain.probes
    assert swept.minimal_size == plain.minimal_size


def test_reduction_knobs_survive_the_snapshot_round_trip():
    opts = {"reduce_base": 123, "reduce_growth": 1.11, "glue_cap": 45}
    spec = SessionSpec(_network())
    session = VerificationSession(spec=spec, reduction_opts=opts)
    worker = WorkerSession(session.snapshot())
    core = worker.solver._sat
    assert core._reduce_limit == 123
    assert core._reduce_growth == 1.11
    assert core.glue_cap == 45
    cold_worker = WorkerSession(
        spec.wrap_solver_snapshot(
            snapshot_solver(spec.load_solver(reduction_opts=opts))
        )
    )
    assert cold_worker.solver._sat._reduce_limit == 123


def test_seed_phases_from_witness_is_a_noop_before_first_sat():
    session = VerificationSession(_network())
    assert session.seed_phases_from_witness() == 0
    assert not session.verify().deadlock_free
    assert session.seed_phases_from_witness() > 0


# ---------------------------------------------------------------------------
# Long-session boundedness (benchmark-scale, deselected from tier-1)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_long_monotone_sweep_stays_bounded_with_identical_verdicts():
    """Miniature of bench_warmstart's bounded-session acceptance gate."""
    from repro.protocols import abstract_mi_mesh

    spec = SessionSpec(abstract_mi_mesh(2, 2, queue_size=2).network)
    spec.generate_invariants()

    def run(reduction):
        session = VerificationSession(
            spec=spec,
            clause_reduction=reduction,
            reduction_opts=(
                {"reduce_base": 200, "reduce_growth": 1.25, "glue_cap": 150}
                if reduction
                else None
            ),
        )
        verdicts = []
        for size in range(1, 121):
            session.resize_queues(size)
            session.seed_phases_from_witness()
            verdicts.append(session.verify().verdict)
        if reduction:
            session.solver.compact()
        return verdicts, session.solver.learned_count()

    bounded_verdicts, bounded_live = run(True)
    unbounded_verdicts, unbounded_live = run(False)
    assert bounded_verdicts == unbounded_verdicts
    # The bench gate is < 0.5 on 200 sizes; leave slack for the shorter
    # sweep and hash-seed trajectory noise.
    assert bounded_live < 0.7 * unbounded_live
