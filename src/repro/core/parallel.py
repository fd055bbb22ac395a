"""The query engine and the worker pools the fan-outs run on.

ADVOCAT's query mix is embarrassingly parallel: the per-channel deadlock
candidates, the per-source idle checks and the Figure-4 queue-size probes
are independent queries over one fixed encoding.  Every one of them is a
:meth:`WorkerSession.check` on some solver:

* :class:`WorkerSession` is the one query engine.  The sequential
  :class:`~repro.core.engine.VerificationSession` binds it to its own
  live solver (:meth:`WorkerSession.over`); pool workers and the service
  restore it from a pickle-safe
  :class:`~repro.core.engine.SessionSnapshot` — no color derivation,
  invariant generation or re-encoding in the workers;
* queries travel as plain data — guard-variable *names* plus a
  ``(queue, size)`` pin list — and results travel back as verdict +
  unsat-core names or a model-value slice, from which the parent rebuilds
  :class:`~repro.core.result.VerificationResult`\\ s (witnesses included)
  in its own term space (:meth:`~repro.core.engine.SessionSpec.read_payload`,
  the one payload reader);
* one ``"shard"`` job kind carries an ordered probe list: the worker
  walks it on its own warm solver (:meth:`WorkerSession.walk`),
  phase-seeding each probe from the previous witness;
* :func:`start_pool` makes every worker pool: the session's two fan-outs
  (``verify_all_cases`` and ``probe_shards`` with ``jobs > 1``), whose
  workers restore one snapshot, and the stateless scenario and build
  pools of the experiment scheduler and the service;
* :func:`gather` answers a fan-out's jobs in submission order whatever
  order the workers finish in, and the parent waits no longer than the
  caller's deadline.

Backends: ``"process"`` (default) runs workers in separate processes —
real parallelism for the pure-Python solver — and ``"thread"`` runs them
as threads of this process.  Either way each worker rehydrates its own
:class:`WorkerSession` from the snapshot, so thread workers run the same
restore path as process workers and the service's hot tier.  The GIL
serialises thread workers, but the backend exercises the same snapshot +
query protocol cheaply (used heavily by the differential tests).

:func:`default_jobs` is the worker count when a caller names none.
``concurrent.futures`` is imported where a pool is made or waited on, so
a process that never starts one never loads it.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import replace
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from ..smt import Result, boolvar, eq, implies
from ..smt.serialize import restore_solver
from .resilience import Deadline

if TYPE_CHECKING:
    from .engine import SessionSnapshot

__all__ = ["WorkerSession", "default_jobs", "start_pool", "gather", "POOL_ATTEMPTS"]

# A query target is resolved against the snapshot's guard tables inside
# the worker: None = the master "any case" guard, an int = that index
# into the encoding's deadlock cases.  A query job is
# ("check", target, ((queue, size), ...) | None, want witness); a shard
# job bundles ordered probes for one worker:
# ("shard", ((target, sizes), ...), want witness).
Job = tuple
Target = int | None
SizesKey = tuple[tuple[str, int], ...]

#: The payload of a query whose budget ran out before it was decided.
TIMEOUT_PAYLOAD = ("unknown", None, None, {}, 0.0)

#: How often a pool whose worker died (``BrokenExecutor``) is rebuilt and
#: its jobs replayed before the work runs in the caller's process instead:
#: the session fan-outs, the scenario scheduler and the service share it.
POOL_ATTEMPTS = 3


def default_jobs() -> int:
    """Worker count when the caller does not choose one.

    The ``ADVOCAT_JOBS`` environment variable overrides the CPU count —
    CI containers advertise more cores than they schedule.  Precedence:
    an explicit ``jobs=`` argument anywhere in the API beats the
    environment, which beats ``os.cpu_count()``.
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


def _process_context():
    """The start-method context pool executors are built with.

    fork inherits the parent cheaply, but only Linux runs it safely
    (CPython documents fork as crash-prone on macOS); everywhere else
    the platform-default spawn works identically because every job and
    initializer argument in this module is pickle-safe.  The
    ``multiprocessing`` machinery is imported here, where a process pool
    is made, so a process that never starts one never loads it.
    """
    from multiprocessing import get_all_start_methods, get_context

    method = (
        "fork"
        if sys.platform.startswith("linux")
        and "fork" in get_all_start_methods()
        else "spawn"
    )
    return get_context(method)


def _capacity_pins(bool_vars, capacities) -> dict[tuple[str, int], str]:
    """``(queue, size) → name`` for every ``cap[<queue>==<size>]`` guard
    among an image's boolean names, for the queues in ``capacities``."""
    pins = {}
    for name, _ in bool_vars:
        if name.startswith("cap[") and name.endswith("]"):
            queue, sep, size = name[4:-1].rpartition("==")
            if sep and queue in capacities and size.isdigit():
                pins[(queue, int(size))] = name
    return pins


class WorkerSession:
    """The one query engine: every verification query's ``Solver.check``.

    Usually rehydrated from a session snapshot; :meth:`over` instead binds
    an already-loaded solver (the sequential session's).  Either way only
    the snapshot's tables are kept (``self.snapshot.solver`` is ``None``).
    Self-contained: everything it consults — the solver's CNF image, the
    deadlock-case guard tables, the ``cap[q]`` variable keys, the default
    sizes and the witness recipe — comes from the snapshot, so a bare
    snapshot (pickled to another process or machine) is a complete query
    session.  Queries name a *target* (``None`` for the master guard, an
    index for one deadlock case); capacity pins are minted lazily per
    ``(queue, size)`` exactly like the sequential session does, so a
    worker probing a shard of ascending sizes warm-starts each probe with
    everything learned on the previous ones.

    :meth:`close` drops the solver (the service's hot tier evicts through
    it); a closed engine refuses further jobs.
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
        # Only the name tables stay: the image's clauses and atoms now
        # live in ``solver``, and holding them twice would double every
        # hot session's memory.
        self.snapshot = replace(snapshot, solver=None)
        self.solver = solver
        self._ints = ints
        self._capacities = {
            name: ints[uid] for name, uid in snapshot.capacity_uids
        }
        # Pins already in a restored image are reused, not minted again.
        self._size_guard_names: dict[tuple[str, int], str] = (
            {} if snapshot.solver is None
            else _capacity_pins(snapshot.solver.bool_vars, self._capacities)
        )
        self._witness_vars = [
            (uid, ints[uid]) for uid in snapshot.witness_int_uids
        ]
        #: Witness integer uid → variable name, for reporting a model.
        self.int_names = {uid: var.name for uid, var in self._witness_vars}

    def close(self) -> None:
        """Drop the solver so its CNF arena is reclaimed now (idempotent).

        A check already running keeps its own reference and finishes;
        :meth:`run` afterwards raises :exc:`RuntimeError`.
        """
        self.solver = None

    # ------------------------------------------------------------------
    def _guard_name(self, target: Target) -> str:
        if target is None:
            return self.snapshot.any_guard_name
        return self.snapshot.case_guard_names[target]

    def _capacity_assumption_names(self, solver, sizes: SizesKey) -> list[str]:
        """The ``cap[q==k]`` guard names pinning every queue, in the
        snapshot's queue order whatever order ``sizes`` lists them in.

        A queue missing from ``sizes`` raises :exc:`KeyError`: leaving
        its capacity floating would change the verdict.
        """
        size_of = dict(sizes)
        names = []
        for queue_name, capacity in self._capacities.items():
            size = size_of[queue_name]
            name = self._size_guard_names.get((queue_name, size))
            if name is None:
                name = f"cap[{queue_name}=={size}]"
                solver.add(implies(boolvar(name), eq(capacity, size)))
                self._size_guard_names[(queue_name, size)] = name
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

        ``sizes=None`` pins the snapshot's default sizes (a bare-snapshot
        consumer probing the as-built configuration); an explicit pin
        list overrides.
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
        # One read of the solver: a concurrent close() cannot pull it out
        # from under this check.
        solver = self.solver
        if solver is None:  # closed since run() looked
            raise RuntimeError("worker session is closed")
        if sizes is None:
            sizes = self.snapshot.default_sizes
        names = self._capacity_assumption_names(solver, sizes)
        names.append(self._guard_name(target))
        names.extend(extra)
        outcome = solver.check(
            assumptions=[boolvar(name) for name in names],
            conflict_limit=conflict_limit,
            should_stop=should_stop,
        )
        elapsed = perf_counter() - start
        stats = dict(solver.stats)
        # Ride the existing stats slot so the payload tuple shape stays
        # frozen; the parent pops this back out in SessionSpec.read_payload.
        stats["profile"] = dict(solver.profile)
        if outcome == Result.UNKNOWN:
            return ("unknown", None, None, stats, elapsed)
        if outcome == Result.UNSAT:
            core = tuple(
                getattr(term, "name", repr(term))
                for term in solver.unsat_core()
            )
            return ("unsat", core, solver.formula_unsat, stats, elapsed)
        if not want_witness:
            return ("sat", None, None, stats, elapsed)
        model = solver.model()
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
            return TIMEOUT_PAYLOAD
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

    def walk(self, probes, want_witness, deadline=None) -> list[tuple]:
        """An ordered walk over one shard's ``(target, sizes)`` probes
        under one budget, phase-seeding each probe from the last witness."""
        payloads = []
        for target, sizes in probes:
            payload = self.bounded_check(deadline, target, sizes, want_witness)
            payloads.append(payload)
            if payload[0] == "sat":
                self._seed_phases_from_sat(payload)
        return payloads

    def run(self, job: Job):
        # Every job kind accepts one optional trailing element: a
        # Deadline wire tuple (remaining seconds, remaining conflicts),
        # rebuilt here so the worker enforces the budget on its own
        # clock.  Jobs without it keep the frozen pre-deadline shape.
        if self.solver is None:
            raise RuntimeError("worker session is closed")
        kind = job[0]
        if kind == "check":
            _, target, sizes, want_witness, *rest = job
            deadline = Deadline.from_wire(rest[0]) if rest else None
            return self.bounded_check(deadline, target, sizes, want_witness)
        if kind == "shard":
            _, probes, want_witness, *rest = job
            deadline = Deadline.from_wire(rest[0]) if rest else None
            return self.walk(probes, want_witness, deadline)
        raise ValueError(f"unknown worker job kind {kind!r}")


# ---------------------------------------------------------------------------
# Pool plumbing.  One WorkerSession per pool worker, stored thread-locally:
# a process worker executes initializer and tasks on its single main
# thread, a thread worker on its own thread; each rehydrates the snapshot
# itself.
# ---------------------------------------------------------------------------

_WORKER = threading.local()


def _initialize_worker(snapshot: SessionSnapshot) -> None:
    _WORKER.session = WorkerSession(snapshot)


def _run_job(job: Job):
    return _WORKER.session.run(job)


def _run_chunk(jobs: Sequence[Job]) -> list:
    return [_run_job(job) for job in jobs]


def start_pool(jobs: int, backend: str, snapshot: SessionSnapshot | None = None):
    """An executor of ``jobs`` workers: process workers for ``"process"``,
    threads of this process for ``"thread"``.

    With a ``snapshot`` each worker restores it once and answers query
    jobs from it (:func:`gather`); without one the workers are stateless
    and run whatever callable is submitted.  The caller shuts it down.
    """
    if backend == "process":
        from concurrent.futures import ProcessPoolExecutor

        executor, kwargs = ProcessPoolExecutor, {"mp_context": _process_context()}
    else:
        from concurrent.futures import ThreadPoolExecutor

        executor, kwargs = ThreadPoolExecutor, {}
    if snapshot is not None:
        kwargs.update(initializer=_initialize_worker, initargs=(snapshot,))
    return executor(max_workers=jobs, **kwargs)


def _unanswered(job: Job):
    """What a job the parent stopped waiting for answers: TIMEOUT."""
    if job[0] == "shard":
        return [TIMEOUT_PAYLOAD] * len(job[1])
    return TIMEOUT_PAYLOAD


def gather(executor, jobs: Sequence[Job], deadline=None, chunksize: int = 1) -> list:
    """Answer ``jobs`` on ``executor``, in submission order.

    Jobs go out ``chunksize`` to a task.  Under a :class:`Deadline` each
    job carries the budget remaining now as its wire tail, and the parent
    waits no longer than the remaining seconds: tasks still queued then
    are cancelled, and every job not answered by then gets the TIMEOUT
    payload.  A worker death surfaces as
    :class:`~concurrent.futures.BrokenExecutor`.  ``executor=None`` (the
    budget ran out before a pool started) answers every job TIMEOUT.
    """
    if executor is None:
        return [_unanswered(job) for job in jobs]
    from concurrent.futures import wait

    tail = () if deadline is None else (deadline.to_wire(),)
    chunks = [
        [(*job, *tail) for job in jobs[start : start + chunksize]]
        for start in range(0, len(jobs), chunksize)
    ]
    futures = [executor.submit(_run_chunk, chunk) for chunk in chunks]
    timeout = None if deadline is None else deadline.remaining_seconds()
    done, _ = wait(futures, timeout=timeout)
    payloads = []
    for future, chunk in zip(futures, chunks):
        if future in done:
            payloads.extend(future.result())
        else:
            future.cancel()
            payloads.extend(_unanswered(job) for job in chunk)
    return payloads
