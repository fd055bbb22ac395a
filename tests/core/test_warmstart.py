"""Warm snapshots and the single-worker pool fallback.

A warm snapshot ships the parent's learned clauses (demoted below glue
protection) and saved phases; both are pure search heuristics, so a warm
worker must answer every query exactly like a cold one — and like the
sequential session — across job counts.  The fallback tests pin the
in-process path: with one worker a session's fan-outs answer on its own
solver with no executor, invariants included.
"""

import os

import pytest
from cdcl_knobs import cdcl_knobs
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SessionSpec,
    VerificationSession,
    sweep_queue_sizes,
    verdict_sha,
)
from repro.core.parallel import WorkerSession, default_jobs
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh


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


def test_warm_cold_and_reduction_verdicts_are_pinned_on_the_mesh():
    """The 2x2 abstract-MI mesh: cold and warm workers answer all 44
    cases alike, and so do sessions with clause reduction on and off.
    Block/idle alone, every case at size 2 is a candidate; with the
    invariants, no case at size 3 (the minimum) is."""
    plain = SessionSpec(abstract_mi_mesh(2, 2, queue_size=2).network)
    strengthened = SessionSpec(abstract_mi_mesh(2, 2, queue_size=3).network)
    strengthened.generate_invariants()
    for spec, sha in ((plain, "7c68c087cec5f932"), (strengthened, "67ac44703d69339c")):
        parent = VerificationSession(spec=spec)
        parent.verify()
        sizes = tuple(sorted(spec.initial_sizes.items()))
        cases = range(len(spec.encoding.cases))
        for snapshot in (spec.snapshot(), parent.snapshot()):
            worker = WorkerSession(snapshot)
            payloads = [worker.check(case, sizes, want_witness=False)[0] for case in cases]
            assert verdict_sha(payloads) == sha
    for reduction in (True, False):
        with cdcl_knobs(reduction=reduction):
            session = VerificationSession(spec=plain)
        verdicts = [r.verdict.value for r in session.verify_all_cases()]
        assert verdict_sha(verdicts) == "f30654c7f8be6217"


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
        spec=spec, jobs=2, backend="thread"
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
# Single-worker fallback
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
# Sweeps stay observationally identical
# ---------------------------------------------------------------------------


def test_sweep_verdicts_identical_with_and_without_reduction():
    def build(size):
        return running_example(queue_size=size).network

    swept = sweep_queue_sizes(build, range(1, 5), jobs=1)
    with cdcl_knobs(reduction=False):
        plain = sweep_queue_sizes(build, range(1, 5), jobs=1)
    assert swept.probes == plain.probes
    assert swept.minimal_size == plain.minimal_size


# ---------------------------------------------------------------------------
# Long monotone sweeps: reduction changes no verdict and bounds the tail
# ---------------------------------------------------------------------------

# Sweep-tuned knobs: frequent small reductions and a tight glue cap suit
# a workload that never revisits a size (see README "Solver internals").
SWEEP_REDUCTION_OPTS = {"reduce_base": 200, "reduce_growth": 1.25, "glue_cap": 150}


def _monotone_sweep(spec, n_sizes, reduction):
    """One ``verify()`` per size, ascending; the verdicts and the learned
    clauses left after a final compaction."""
    with cdcl_knobs(**(SWEEP_REDUCTION_OPTS if reduction else {"reduction": False})):
        session = VerificationSession(spec=spec)
    assert session.solver._sat.reduction is reduction  # the seam took
    verdicts = []
    for size in range(1, n_sizes + 1):
        session.resize_queues(size)
        verdicts.append(session.verify().verdict.value)
    if reduction:
        session.solver._sat.compact()
    return verdicts, session.solver.learned_count()


@pytest.fixture(scope="module")
def mesh_spec_with_invariants():
    spec = SessionSpec(abstract_mi_mesh(2, 2, queue_size=2).network)
    spec.generate_invariants()
    return spec


def test_monotone_sweep_verdicts_are_pinned_with_and_without_reduction(
    mesh_spec_with_invariants,
):
    for reduction in (True, False):
        verdicts, _ = _monotone_sweep(mesh_spec_with_invariants, 40, reduction)
        assert verdict_sha(verdicts) == "0920bc09ae4528a3", reduction


@pytest.mark.slow
def test_long_monotone_sweep_stays_bounded_with_identical_verdicts(
    mesh_spec_with_invariants,
):
    bounded_verdicts, bounded_live = _monotone_sweep(mesh_spec_with_invariants, 120, True)
    unbounded_verdicts, unbounded_live = _monotone_sweep(
        mesh_spec_with_invariants, 120, False
    )
    assert bounded_verdicts == unbounded_verdicts
    # Within 70% of the unbounded count, leaving slack for hash-seed
    # trajectory noise.
    assert bounded_live < 0.7 * unbounded_live
