"""Parallel verification orchestration over a worker pool.

ADVOCAT's query mix is embarrassingly parallel: the per-channel deadlock
candidates, the per-source idle checks and the Figure-4 queue-size probes
are independent queries over one fixed encoding.
:class:`ParallelVerificationSession` exploits that structure:

* the **build phase** runs once in the parent
  (:class:`~repro.core.engine.SessionSpec`: colors → invariants →
  encoding) and is flattened into a pickle-safe
  :class:`~repro.core.engine.SessionSnapshot`;
* each pool worker rehydrates the snapshot into its own incremental
  solver (:class:`WorkerSession`) — no color derivation, invariant
  generation or re-encoding in the workers;
* queries travel as plain data — guard-variable *names* plus a
  ``(queue, size)`` pin list — and results travel back as verdict +
  unsat-core names or a model-value slice, from which the parent rebuilds
  :class:`~repro.core.result.VerificationResult`\\ s (witnesses included)
  in its own term space (:meth:`~repro.core.engine.SessionSpec.read_payload`,
  the one payload reader);
* one ``"shard"`` job kind carries an ordered probe list: the worker
  walks it on its own warm solver, phase-seeding each probe from the
  previous witness exactly as the sequential walk does (invariants, when
  the spec has them, are already baked into the pool snapshot);
* merged result lists are deterministic: :meth:`verify_all_cases` returns
  results in encoding order regardless of worker completion order
  (first-witness-stable), and sharded probes preserve submission order;
* workers rehydrate **warm** by default: the pool snapshot is taken from
  a primed local session, so the parent's learned clauses (LBD-sorted,
  capped) and saved phases travel with the CNF image and each worker's
  first query skips the re-learning cost (``bench_warmstart.py``);
* on one CPU — or with one worker — the pool is skipped entirely and a
  single in-process :class:`WorkerSession` answers the same job stream,
  so the parallel API never loses to the sequential session on machines
  that cannot parallelise.

:class:`WorkerSession` is the one query engine: pool workers and the
service restore it, the sequential session binds it in place.

Backends: ``"process"`` (default) runs workers in separate processes —
real parallelism for the pure-Python solver — each rehydrating the
snapshot independently; ``"thread"`` rehydrates one template
:class:`WorkerSession` in-process and hands every pool thread a
:meth:`Solver.fork` clone of it.  The GIL serialises thread workers, but
the backend exercises the same snapshot + query protocol cheaply (used
heavily by the differential tests).

Witness enumeration stays sequential (each blocking clause depends on the
previous model), so :meth:`enumerate_witnesses` delegates to a local
:class:`~repro.core.engine.VerificationSession` sharing the same spec.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from multiprocessing import get_all_start_methods, get_context
from time import perf_counter
from typing import Iterator, Mapping, Sequence

from ..smt import Result, boolvar, eq, implies
from ..smt.serialize import restore_solver
from ..xmas import Network
from .deadlock import DeadlockCase
from .engine import (
    SessionBase,
    SessionSnapshot,
    SessionSpec,
    VerificationSession,
    resolve_resize,
)
from .resilience import Deadline, RetryPolicy, maybe_inject
from .result import DeadlockWitness, Invariant, VerificationResult

__all__ = [
    "ParallelVerificationSession",
    "WorkerSession",
    "default_jobs",
    "nested_jobs",
    "scenario_executor",
    "discard_scenario_executor",
    "shutdown_scenario_executors",
]

# A query target is resolved against the snapshot's guard tables inside
# the worker: None = the master "any case" guard, an int = that index
# into the encoding's deadlock cases.  A query job is
# ("check", target, ((queue, size), ...) | None, want witness); a shard
# job bundles ordered probes for one worker:
# ("shard", ((target, sizes), ...), want witness).
Job = tuple
Target = int | None
SizesKey = tuple[tuple[str, int], ...]


def default_jobs() -> int:
    """Worker count when the caller does not choose one.

    The ``ADVOCAT_JOBS`` environment variable overrides the CPU count —
    CI containers advertise more cores than they schedule, and the
    experiment scheduler caps its nested query pools through the same
    knob.  Precedence: an explicit ``jobs=`` argument anywhere in the API
    beats the environment, which beats ``os.cpu_count()``.
    """
    env = os.environ.get("ADVOCAT_JOBS")
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"ADVOCAT_JOBS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"ADVOCAT_JOBS must be a positive integer, got {env!r}"
            )
        return value
    return max(1, os.cpu_count() or 1)


def nested_jobs(outer_jobs: int, budget: int | None = None) -> int:
    """Per-task inner worker budget when ``outer_jobs`` tasks run at once.

    The experiment scheduler runs N scenario builds concurrently, each of
    which may itself shard queries over M workers; handing every scenario
    the full :func:`default_jobs` would oversubscribe the machine N-fold.
    This splits the budget evenly (never below 1), so
    ``outer × nested_jobs(outer) ≤ budget`` whenever ``budget ≥ outer``.
    """
    if outer_jobs < 1:
        raise ValueError(f"outer_jobs must be >= 1, got {outer_jobs}")
    if budget is None:
        budget = default_jobs()
    return max(1, budget // max(1, outer_jobs))


def _process_context():
    """The start-method context pool executors are built with.

    fork inherits the parent cheaply, but only Linux runs it safely
    (CPython documents fork as crash-prone on macOS); everywhere else
    the platform-default spawn works identically because every job and
    initializer argument in this module is pickle-safe.
    """
    method = (
        "fork"
        if sys.platform.startswith("linux")
        and "fork" in get_all_start_methods()
        else "spawn"
    )
    return get_context(method)


# Coarse-grained scenario jobs (whole SessionSpec builds, see
# repro.core.experiments) reuse one module-level executor per
# (backend, jobs) shape instead of paying pool startup per experiment —
# resumed runs and multi-experiment scripts hit the same warm pool.
_SCENARIO_EXECUTORS: dict[tuple[str, int], tuple[object, int]] = {}


def scenario_executor(jobs: int, backend: str = "process", epoch: int = 0):
    """A reusable executor for scenario-level (whole-build) jobs.

    Unlike the per-session query pools (which rehydrate workers from one
    session snapshot and must restart when the encoding changes), scenario
    workers are stateless — each job carries its own
    :class:`~repro.core.experiments.ScenarioSpec` — so one executor can
    serve any number of experiments.  ``epoch`` invalidates the cache:
    a cached executor created under an older epoch is shut down and
    rebuilt (the experiment layer passes its builder-registry generation,
    so fork-started workers never answer from a pre-registration
    snapshot of the registry).  Call :func:`shutdown_scenario_executors`
    to release them explicitly.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if backend not in ("process", "thread"):
        raise ValueError(f"unknown backend {backend!r}")
    key = (backend, jobs)
    cached = _SCENARIO_EXECUTORS.get(key)
    if cached is not None:
        executor, cached_epoch = cached
        if cached_epoch == epoch:
            return executor
        executor.shutdown(wait=True, cancel_futures=True)
        del _SCENARIO_EXECUTORS[key]
    if backend == "process":
        executor = ProcessPoolExecutor(
            max_workers=jobs, mp_context=_process_context()
        )
    else:
        executor = ThreadPoolExecutor(max_workers=jobs)
    _SCENARIO_EXECUTORS[key] = (executor, epoch)
    return executor


def discard_scenario_executor(
    jobs: int, backend: str = "process", wait: bool = True
) -> None:
    """Evict one cached scenario executor (e.g. after a worker died).

    A :class:`~concurrent.futures.BrokenExecutor` poisons the pool
    permanently; callers that observe one must discard the cached entry
    or every later run with the same shape would fail instantly.
    """
    cached = _SCENARIO_EXECUTORS.pop((backend, jobs), None)
    if cached is not None:
        cached[0].shutdown(wait=wait, cancel_futures=True)


def shutdown_scenario_executors(wait: bool = True) -> None:
    """Release every cached scenario executor."""
    while _SCENARIO_EXECUTORS:
        _, (executor, _) = _SCENARIO_EXECUTORS.popitem()
        executor.shutdown(wait=wait, cancel_futures=True)


class WorkerSession:
    """The one query engine: every verification query's ``Solver.check``.

    Usually rehydrated from a session snapshot; :meth:`over` instead binds
    an already-loaded solver (the sequential session's), in which case
    ``snapshot.solver`` is ``None`` and only the tables are read.
    Self-contained: everything it consults — the solver's CNF image, the
    deadlock-case guard tables, the ``cap[q]`` variable keys, the default
    sizes and the witness recipe — comes from the snapshot, so a bare
    snapshot (pickled to another process or machine) is a complete query
    session.  Queries name a *target* (``None`` for the master guard, an
    index for one deadlock case); capacity pins are minted lazily per
    ``(queue, size)`` exactly like the sequential session does, so a
    worker probing a shard of ascending sizes warm-starts each probe with
    everything learned on the previous ones.
    """

    def __init__(self, snapshot: SessionSnapshot):
        solver, ints = restore_solver(snapshot.solver)
        self._bind(snapshot, solver, ints)

    @classmethod
    def over(cls, snapshot: SessionSnapshot, solver, ints) -> "WorkerSession":
        """The engine over an already-loaded ``solver`` (no restore);
        ``ints`` maps every uid the snapshot's tables name to its term."""
        session = object.__new__(cls)
        session._bind(snapshot, solver, ints)
        return session

    def _bind(self, snapshot: SessionSnapshot, solver, ints) -> None:
        self.snapshot = snapshot
        self.solver = solver
        self._ints = ints
        self._capacities = {
            name: ints[uid] for name, uid in snapshot.capacity_uids
        }
        self._size_guard_names: dict[tuple[str, int], str] = {}
        self._witness_vars = [
            (uid, ints[uid]) for uid in snapshot.witness_int_uids
        ]

    def fork(self) -> "WorkerSession":
        """An independent clone over the same solver state (in-process).

        Thread pools rehydrate the snapshot once and fork the template
        per worker thread — :meth:`Solver.fork` copies the CNF tables and
        shares the immutable restored terms, so no re-minting happens.
        """
        clone = WorkerSession.over(self.snapshot, self.solver.fork(), self._ints)
        # Guard definitions live in the forked clauses.
        clone._size_guard_names = dict(self._size_guard_names)
        return clone

    # ------------------------------------------------------------------
    def _guard_name(self, target: Target) -> str:
        if target is None:
            return self.snapshot.any_guard_name
        return self.snapshot.case_guard_names[target]

    def _capacity_assumption_names(self, sizes: SizesKey) -> list[str]:
        names = []
        for queue_name, size in sizes:
            key = (queue_name, size)
            name = self._size_guard_names.get(key)
            if name is None:
                name = f"cap[{queue_name}=={size}]"
                guard = boolvar(name)
                self.solver.add_global(
                    implies(guard, eq(self._capacities[queue_name], size))
                )
                self._size_guard_names[key] = name
            names.append(name)
        return names

    def check(
        self,
        target: Target,
        sizes: SizesKey | None = None,
        want_witness: bool = True,
        conflict_limit: int | None = None,
        should_stop=None,
        extra: Sequence[str] = (),
    ) -> tuple:
        """Answer one guard-literal query; returns a plain-data payload.

        ``sizes=None`` falls back to the snapshot's default sizes when
        the encoding is parametric (a bare-snapshot consumer probing the
        as-built configuration); an explicit pin list overrides.
        ``extra`` names further boolean guards to assume after the target
        (a witness enumeration's blocking guard).

        Assumptions go stable-first: capacity pins, then the target guard,
        then ``extra``.  The CDCL core keeps the trail between queries and
        rewinds only to the first assumption that changed, so a run of
        case queries under the same pins decides the pins once.

        ``conflict_limit``/``should_stop`` bound the call cooperatively
        (see :meth:`Solver.check`; :meth:`bounded_check` sets them from a
        :class:`~repro.core.resilience.Deadline`); an expired slice yields
        the payload ``("unknown", None, None, stats, elapsed)`` with all
        learning retained, so the caller can re-ask.
        """
        start = perf_counter()
        if sizes is None and self.snapshot.parametric:
            sizes = self.snapshot.default_sizes
        names = [] if sizes is None else self._capacity_assumption_names(sizes)
        names.append(self._guard_name(target))
        names.extend(extra)
        outcome = self.solver.check(
            assumptions=[boolvar(name) for name in names],
            conflict_limit=conflict_limit,
            should_stop=should_stop,
        )
        elapsed = perf_counter() - start
        stats = dict(self.solver.stats)
        # Ride the existing stats slot so the payload tuple shape stays
        # frozen; the parent pops this back out in SessionSpec.read_payload.
        stats["profile"] = dict(self.solver.profile)
        if outcome == Result.UNKNOWN:
            return ("unknown", None, None, stats, elapsed)
        if outcome == Result.UNSAT:
            core = tuple(
                getattr(term, "name", repr(term))
                for term in self.solver.unsat_core()
            )
            return ("unsat", core, self.solver.formula_unsat, stats, elapsed)
        if not want_witness:
            return ("sat", None, None, stats, elapsed)
        model = self.solver.model()
        ints = {uid: int(model[var]) for uid, var in self._witness_vars}
        bools = {
            name: bool(model[name])
            for name in self.snapshot.witness_bool_names
        }
        return ("sat", ints, bools, stats, elapsed)

    def _seed_phases_from_sat(self, payload: tuple) -> None:
        # Phase-seed the next probe from this witness's block booleans:
        # shards walk sizes in ascending order, so the previous blocking
        # shape is a strong prior for the next capacity step.  Without a
        # witness payload the model is still live — read the bools
        # directly.
        bools = payload[2]
        if bools is None:
            model = self.solver.model()
            bools = {
                name: bool(model[name])
                for name in self.snapshot.witness_bool_names
            }
        if bools:
            self.solver.phase_hints(bools)

    def bounded_check(
        self, deadline, target, sizes, want_witness, extra=()
    ) -> tuple:
        """One check under a worker-local :class:`Deadline` (or none).

        An expired budget short-circuits to the ``"unknown"`` payload
        without entering the solver; otherwise the remaining budget
        becomes this check's ``conflict_limit``, the deadline's wall clock
        its ``should_stop`` poll, and the conflicts actually spent are
        charged back, so every check of a shard shares one budget.
        ``extra`` is as for :meth:`check`.
        """
        if deadline is None:
            return self.check(target, sizes, want_witness, extra=extra)
        if deadline.expired():
            return ("unknown", None, None, {}, 0.0)
        payload = self.check(
            target,
            sizes,
            want_witness,
            deadline.remaining_conflicts(),
            deadline.should_stop,
            extra,
        )
        deadline.charge(payload[3].get("conflicts", 0))
        return payload

    def run(self, job: Job):
        # Every job kind accepts one optional trailing element: a
        # Deadline wire tuple (remaining seconds, remaining conflicts),
        # rebuilt here so the worker enforces the budget on its own
        # clock.  Jobs without it keep the frozen pre-deadline shape.
        kind = job[0]
        if kind == "check":
            _, target, sizes, want_witness, *rest = job
            deadline = Deadline.from_wire(rest[0]) if rest else None
            return self.bounded_check(deadline, target, sizes, want_witness)
        if kind == "shard":
            # An ordered walk over one shard's probes under one budget.
            _, probes, want_witness, *rest = job
            deadline = Deadline.from_wire(rest[0]) if rest else None
            payloads = []
            for target, sizes in probes:
                payload = self.bounded_check(
                    deadline, target, sizes, want_witness
                )
                payloads.append(payload)
                if payload[0] == "sat":
                    self._seed_phases_from_sat(payload)
            return payloads
        raise ValueError(f"unknown worker job kind {kind!r}")


# ---------------------------------------------------------------------------
# Pool plumbing.  One WorkerSession per pool worker, stored thread-locally:
# a process worker executes initializer and tasks on its single main
# thread and rehydrates the pickled snapshot itself; thread workers each
# fork() an in-process template rehydrated once by the parent.
# ---------------------------------------------------------------------------

_WORKER = threading.local()


def _initialize_worker(snapshot: SessionSnapshot) -> None:
    _WORKER.session = WorkerSession(snapshot)


def _initialize_thread_worker(template: WorkerSession) -> None:
    _WORKER.session = template.fork()


def _run_job(job: Job):
    # Fault-injection point: a worker-side kill/raise lands here, before
    # the solver runs, so an injected crash never leaves a half-merged
    # payload (see repro.core.resilience).
    maybe_inject("query-worker")
    return _WORKER.session.run(job)


class ParallelVerificationSession(SessionBase):
    """Fan guard-literal queries of one network out over a worker pool.

    Exposes the :class:`~repro.core.engine.VerificationSession` query API
    (``verify``, ``verify_case``, ``verify_channel``, ``verify_source``,
    ``verify_all_cases``, ``enumerate_witnesses``, ``resize_queues``,
    ``add_invariants``) with identical verdicts; per-channel fan-outs and
    size sweeps run concurrently.

    Parameters
    ----------
    network:
        The network to verify; ignored when ``spec`` is given.
    jobs:
        Worker count (default: ``os.cpu_count()``).  When the effective
        count is 1 — explicitly, or because the machine has a single CPU —
        queries run on an in-process :class:`WorkerSession` instead of a
        pool, so the parallel session never regresses below the
        sequential one on small machines.  ``verify_all_cases(jobs=N)``
        can re-target a different count per call.
    backend:
        ``"process"`` (true parallelism) or ``"thread"`` (GIL-bound, for
        tests and debugging).
    warm_start:
        Ship the parent's learned clauses and saved phases to workers:
        the pool snapshot is taken from a *primed* local session (one
        master-guard query) instead of a cold solver, so each worker's
        first query skips the re-learning cost.  Verdicts are identical
        either way (``benchmarks/bench_warmstart.py`` measures the win).
    learned_cap:
        Cap on the LBD-sorted learned-clause tail a warm snapshot ships.
    force_pool:
        Build a real executor even where the fallback would run inline
        (tests and benchmarks of the pool machinery itself).
    reduction_opts:
        Lifecycle knobs (``reduce_base`` etc.) for the local session and,
        via the snapshot, every worker — shard-locality tuning.
    rotating_precision, max_splits, parametric_queues, spec:
        As for :class:`~repro.core.engine.VerificationSession`.

    The pool is started lazily on the first query (building the session
    snapshot once), restarted when :meth:`add_invariants` strengthens the
    encoding, and released by :meth:`close` / the context manager.
    """

    def __init__(
        self,
        network: Network | None = None,
        jobs: int | None = None,
        backend: str = "process",
        rotating_precision: bool = True,
        max_splits: int = 100_000,
        parametric_queues: bool = True,
        warm_start: bool = True,
        learned_cap: int = 4000,
        force_pool: bool = False,
        reduction_opts: Mapping | None = None,
        spec: SessionSpec | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}")
        if spec is None:
            if network is None:
                raise TypeError(
                    "ParallelVerificationSession needs a network or a spec"
                )
            spec = SessionSpec(
                network,
                rotating_precision=rotating_precision,
                parametric_queues=parametric_queues,
            )
        self.spec = spec
        self.network = spec.network
        self.colors = spec.colors
        self.pool = spec.pool
        self.encoding = spec.encoding
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.backend = backend
        self.warm_start = warm_start
        self._learned_cap = learned_cap
        self._force_pool = force_pool
        self._reduction_opts = dict(reduction_opts or {}) or None
        self._max_splits = max_splits
        self.retry_policy = retry_policy or RetryPolicy()
        # Recovery accounting: pool rebuilds after a BrokenExecutor, and
        # whether the session fell back to the inline worker for good.
        self.recoveries = 0
        self.degraded = False
        self._parametric = spec.parametric
        self._sizes: dict[str, int] = dict(spec.initial_sizes)
        self._executor = None
        self._pool_size = 0
        # Whether the spec was strengthened when the pool / inline worker
        # took its snapshot.
        self._pool_key: bool | None = None
        self._inline: WorkerSession | None = None
        self._inline_key: bool | None = None
        self._local: VerificationSession | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _shutdown_pool(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
            self._pool_size = 0

    def close(self) -> None:
        """Release pool workers (the spec and local session stay usable)."""
        self._shutdown_pool()

    def __del__(self) -> None:  # best effort; close() is the real API
        try:
            # wait=False: a finalizer must not block the GC thread on an
            # in-flight solver query (running jobs cannot be cancelled).
            self._shutdown_pool(wait=False)
        except Exception:
            pass

    def _ensure_pool(self, jobs: int | None = None):
        want = jobs if jobs is not None else self.jobs
        if want < 1:
            raise ValueError(f"jobs must be >= 1, got {want}")
        # Re-targeting sticks: later default-jobs queries reuse this pool
        # instead of thrashing a teardown/rebuild per call.
        self.jobs = want
        key = self.spec.invariants is not None
        if self._executor is not None and (
            self._pool_size != want
            # The spec was strengthened (possibly by *another* session
            # sharing it) after these workers rehydrated: restart so the
            # pool answers from the snapshot a fresh session would ship.
            or self._pool_key != key
        ):
            self._shutdown_pool()
        if self._executor is None:
            snapshot = self._pool_snapshot()
            if self.backend == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=want,
                    mp_context=_process_context(),
                    initializer=_initialize_worker,
                    initargs=(snapshot,),
                )
            else:
                template = WorkerSession(snapshot)
                self._executor = ThreadPoolExecutor(
                    max_workers=want,
                    initializer=_initialize_thread_worker,
                    initargs=(template,),
                )
            self._pool_size = want
            self._pool_key = key
        return self._executor

    def _local_session(self) -> VerificationSession:
        if self._local is None:
            self._local = VerificationSession(
                spec=self.spec,
                max_splits=self._max_splits,
                reduction_opts=self._reduction_opts,
            )
        if self.spec.invariants is not None:
            self._local.add_invariants()  # no-op once loaded
        if self._parametric:
            self._local.resize_queues(dict(self._sizes))
        return self._local

    def _pool_snapshot(self) -> SessionSnapshot:
        """The session snapshot workers rehydrate from.

        With :attr:`warm_start` the snapshot comes from a *primed* local
        session: one master-guard query forces the solver through the
        case analysis every per-case query repeats, and the learned
        clauses plus saved phases ship with the CNF image.  Priming is
        incremental — rebuilding the pool (say after invariant
        strengthening) re-primes on the already-warm local solver at
        near-zero cost.
        """
        if not self.warm_start:
            return self.spec.snapshot(
                max_splits=self._max_splits,
                reduction_opts=self._reduction_opts,
            )
        local = self._local_session()
        local.verify()
        return local.snapshot(
            include_learned=True, learned_cap=self._learned_cap
        )

    def _sequential_fallback(self, want: int) -> bool:
        """Run in-process when a pool cannot win (1 worker or 1 CPU).

        Deliberately checks the *physical* CPU count, not
        :func:`default_jobs`: an explicit ``jobs=N`` request must beat an
        ``ADVOCAT_JOBS`` cap (the documented precedence), so the env
        override only shapes defaults, never silently downgrades a
        requested pool to inline execution.
        """
        return not self._force_pool and (
            want == 1 or (os.cpu_count() or 1) == 1
        )

    def _ensure_inline(self) -> WorkerSession:
        key = self.spec.invariants is not None
        if self._inline is None or self._inline_key != key:
            # (Re)hydrate: first use, or stale since the spec was
            # strengthened.
            self._inline = WorkerSession(self._pool_snapshot())
            self._inline_key = key
        return self._inline

    # ------------------------------------------------------------------
    # Configuration (mirrors the sequential session)
    # ------------------------------------------------------------------
    def add_invariants(self) -> list[Invariant]:
        """Generate + conjoin invariants (idempotent).

        Running workers rehydrated from the unstrengthened encoding are
        restarted lazily by the next query (:meth:`_ensure_pool` compares
        the pool's snapshot against the spec) — the same healing covers a
        *different* session strengthening the shared spec.
        """
        invariants = self.spec.generate_invariants()
        if self._local is not None:
            self._local.add_invariants()
        return invariants

    @property
    def invariants(self) -> list[Invariant]:
        return self.spec.invariants or []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _sizes_key(self) -> SizesKey | None:
        if not self._parametric:
            return None
        return tuple(sorted(self._sizes.items()))

    def _dispatch(self, jobs_list: list[Job], jobs: int | None = None, chunksize: int = 1):
        want = jobs if jobs is not None else self.jobs
        if want < 1:
            raise ValueError(f"jobs must be >= 1, got {want}")
        if self._sequential_fallback(want) or self.degraded:
            # Same snapshot + query protocol, no pool: a single worker
            # answers in-process, so small machines pay neither process
            # startup nor serialization and never regress below the
            # sequential session.  A quarantined (degraded) session stays
            # inline — its workers died max_attempts times already.
            self.jobs = want
            self._shutdown_pool()
            worker = self._ensure_inline()
            return [worker.run(job) for job in jobs_list]
        policy = self.retry_policy
        for attempt in range(policy.max_attempts):
            try:
                maybe_inject("parallel-pool")
                executor = self._ensure_pool(want)
                return list(
                    executor.map(_run_job, jobs_list, chunksize=chunksize)
                )
            except BrokenExecutor:
                # A worker died mid-map and poisoned the pool.  Tear it
                # down and rebuild from the same warm snapshot: replaying
                # the identical job list over the identical snapshot is
                # what keeps recovered verdicts byte-identical.
                self._shutdown_pool(wait=False)
                self.recoveries += 1
                if attempt + 1 < policy.max_attempts:
                    policy.sleep(attempt)
        # Workers died on every attempt (e.g. a job deterministically
        # crashes its process).  Quarantine the pool: degrade to the
        # in-process WorkerSession — same snapshot, same job protocol —
        # so the query still lands instead of aborting the caller.
        self.degraded = True
        worker = self._ensure_inline()
        return [worker.run(job) for job in jobs_list]

    @staticmethod
    def _job_tail(deadline) -> tuple:
        """The optional trailing wire-deadline element of a job tuple.

        Jobs without a deadline keep the frozen pre-deadline shape, so
        payload caches and third-party job producers stay byte-compatible.
        """
        if deadline is None:
            return ()
        return (Deadline.coerce(deadline).to_wire(),)

    def _check(self, target: Target, deadline) -> VerificationResult:
        """One guard query, answered by one pool worker."""
        job = ("check", target, self._sizes_key(), True, *self._job_tail(deadline))
        payload = self._dispatch([job])[0]
        return self.spec.read_payload(payload, self._sizes, self.invariants)

    def verify(self, deadline=None) -> VerificationResult:
        """The full deadlock check, answered by one pool worker."""
        return self._check(None, deadline)

    def verify_case(self, case: DeadlockCase, deadline=None) -> VerificationResult:
        return self._check(self.spec.case_index[case.guard.name], deadline)

    def verify_all_cases(
        self, jobs: int | None = None, deadline=None
    ) -> list[VerificationResult]:
        """Every deadlock case concurrently; results in encoding order.

        The merge is deterministic (first-witness-stable): result ``i``
        always corresponds to ``encoding.cases[i]`` no matter which worker
        answered first.  A deadline ships its budget *remaining at
        dispatch* to every job: cases run concurrently, so each worker
        enforces the same wall-clock window locally (the conflict budget,
        when given, is per case).
        """
        sizes = self._sizes_key()
        tail = self._job_tail(deadline)
        job_list: list[Job] = [
            ("check", index, sizes, True, *tail)
            for index in range(len(self.encoding.cases))
        ]
        pool_size = jobs if jobs is not None else self.jobs
        chunksize = max(1, len(job_list) // max(1, pool_size * 4))
        payloads = self._dispatch(job_list, jobs=jobs, chunksize=chunksize)
        invariants = self.invariants
        return [
            self.spec.read_payload(payload, self._sizes, invariants)
            for payload in payloads
        ]

    def probe_shards(
        self,
        shards: Sequence[Sequence[Mapping[str, int]]],
        want_witness: bool = True,
        deadline=None,
    ) -> list[list[VerificationResult]]:
        """Run the full check under each capacity assignment, sharded.

        ``shards[w]`` is the ordered list of per-queue size assignments
        worker ``w`` probes on its own rehydrated session — ascending
        order within a shard warm-starts each probe with the clauses
        learned on the previous ones.  Returns results aligned with the
        input structure.  Probes answer under the encoding as it stands:
        call :meth:`add_invariants` first to bake the invariants into the
        worker snapshot.
        """
        if not self._parametric:
            raise RuntimeError("probe_shards() requires parametric_queues=True")
        full_shards = [
            [
                resolve_resize(self._sizes, dict(assignment), True)
                for assignment in shard
            ]
            for shard in shards
        ]
        tail = self._job_tail(deadline)
        job_list: list[Job] = [
            (
                "shard",
                tuple((None, tuple(sorted(full.items()))) for full in shard),
                want_witness,
                *tail,
            )
            for shard in full_shards
        ]
        payload_lists = self._dispatch(job_list)
        invariants = self.invariants
        return [
            [
                self.spec.read_payload(payload, full, invariants)
                for full, payload in zip(shard, payloads)
            ]
            for shard, payloads in zip(full_shards, payload_lists)
        ]

    def enumerate_witnesses(self, limit: int = 16) -> Iterator[DeadlockWitness]:
        """Sequential by nature (each blocking clause depends on the last
        model); runs on a local session sharing this spec."""
        return self._local_session().enumerate_witnesses(limit=limit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "network": self.network.stats(),
            "color_pairs": self.colors.total_pairs(),
            "invariant_count": len(self.spec.invariants or []),
            "jobs": self.jobs,
            "backend": self.backend,
            "warm_start": self.warm_start,
            "pool_running": self._executor is not None,
            "inline_worker": self._inline is not None,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
        }
