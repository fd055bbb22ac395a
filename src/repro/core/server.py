"""Verification-as-a-service: the asyncio server over tiered caching.

The paper pitches push-button deadlock verification at design-tool
scale; everything through PR 8 is script-shaped — each caller pays a
fresh build+solve even when thousands of requests describe the same
network.  This module turns the stack into a long-lived TCP service:

* **protocol** — length-prefixed JSON frames (4-byte big-endian length,
  then one UTF-8 JSON object).  Requests carry an ``op`` (``ping`` /
  ``stats`` / ``cases`` / ``verify`` / ``verify_channel`` / ``witness``
  / ``size`` / ``shutdown``), a network *description* (a builder name
  plus kwargs, canonicalised through the
  :class:`~repro.core.experiments.ScenarioSpec` registry — no code
  crosses the wire), optional query params and an optional
  ``deadline_s`` honoured per request as a PR-8
  :class:`~repro.core.resilience.Deadline`.
* **three tiers**, consulted cheapest-first (see
  :mod:`repro.core.cache`): the cold :class:`VerdictStore` keyed by
  ``(encoding content hash, canonical query)`` — a hit answers without
  any solver; the hot :class:`LruSessionCache` of live in-server
  :class:`~repro.core.parallel.WorkerSession`\\ s (eviction calls
  ``close()``, which drops the solver), each restored once from the
  pickled :class:`~repro.core.engine.SessionSnapshot` that the
  :class:`SnapshotStore` keeps on disk; and the build tier, a pool job
  that builds a network, stores its snapshot and answers the query that
  asked for it.
* **batching + single-flight** — concurrent identical requests share
  one in-flight future; concurrent *distinct* queries against one spec
  serialise through that spec's session (assumption-based guard
  queries on one live solver) instead of spawning N sessions.
* **backpressure** — requests needing a solve beyond ``max_pending``
  outstanding are rejected with ``"overloaded"`` instead of queueing
  unboundedly; cache hits are always served.

Wire framing, :class:`~repro.core.service.ServiceError` and the
clients live in :mod:`repro.core.service`, which a client imports
without loading this module or the solver under it.

Verdicts are cached by *content*, never by name: the key is
:meth:`SessionSnapshot.content_hash`, so differently labelled requests
that build the same encoding share one solve, and specs whose kwargs
differ at all never collide.  ``TIMEOUT`` verdicts are never cached —
a budget miss is a property of the request, not of the encoding.
"""

from __future__ import annotations

import argparse
import asyncio
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from functools import partial
from typing import Any

from ..smt.terms import live_terms
from .cache import (
    LruSessionCache,
    SnapshotStore,
    VerdictStore,
    canonical_json,
    stable_hash,
)
from .engine import SessionSnapshot, resolve_resize
from .experiments import ScenarioSpec, builder_catalog, run_scenario
from .parallel import POOL_ATTEMPTS, WorkerSession, default_jobs, start_pool
from .resilience import Deadline
from .service import ServiceError, read_frame, write_frame
from .vars import color_label

__all__ = ["VerificationService", "main"]

_QUERY_OPS = ("verify", "verify_channel", "witness")


# ---------------------------------------------------------------------------
# Query and pool-job bodies (module-level: picklable for the process pool;
# the thread backend runs the same functions in-process).
# ---------------------------------------------------------------------------


def _resolved_sizes(snapshot: SessionSnapshot, overrides):
    """A request's ``sizes`` override → the full pin list (or ``None``).

    ``resize_queues`` semantics: a partial map merges over the
    snapshot's default sizes, so the worker pins *every* queue — a
    partial pin list would leave capacities floating and change the
    verdict.
    """
    if overrides is None:
        return None
    merged = resolve_resize(dict(snapshot.default_sizes), overrides)
    return tuple(merged.items())


def _translate(session: WorkerSession, payload: tuple) -> dict:
    """Worker payload tuple → plain response dict (the session maps
    witness uids to names)."""
    kind, a, b, stats, elapsed = payload[:5]
    out: dict[str, Any] = {
        "solve_seconds": round(elapsed, 6),
        "conflicts": int(stats.get("conflicts", 0) or 0),
    }
    if kind == "unknown":
        out["verdict"] = "timeout"
    elif kind == "unsat":
        out["verdict"] = "deadlock-free"
        out["unsat_core"] = sorted(a or ())
    else:
        out["verdict"] = "deadlock-candidate"
        if a is not None:
            names = session.int_names
            out["witness"] = {
                "ints": {
                    names[uid]: value
                    for uid, value in sorted(
                        a.items(), key=lambda item: names[item[0]]
                    )
                    if value
                },
                "blocked": sorted(name for name, value in b.items() if value),
            }
    return out


def _answer(
    session: WorkerSession, target, overrides, want_witness: bool, wire_deadline
) -> dict:
    """One guard query on ``session`` → its response dict (every tier
    answers through here, one :meth:`WorkerSession.run` each)."""
    sizes = _resolved_sizes(session.snapshot, overrides)
    job = ("check", target, sizes, want_witness)
    if wire_deadline is not None:
        job = (*job, tuple(wire_deadline))
    return _translate(session, session.run(job))


def _build_job(
    cache_dir: str, builder: str, kwargs: tuple, job_request
) -> tuple[str, dict, dict | None]:
    """Build tier: build the network, load it into one solver, store
    that solver's cold image, and (optionally) answer the triggering
    query on the same solver: the hot tier restores its own session
    from the store."""
    spec = ScenarioSpec(builder=builder, kwargs=kwargs)
    session_spec = spec.session_spec()
    session_spec.generate_invariants()
    solver = session_spec.load_solver()
    snapshot = session_spec.snapshot(solver)
    meta = {
        "builder": spec.builder,
        "label": spec.display_label,
        "cases": [
            {
                "label": case.label,
                "kind": case.kind,
                "subject": case.subject,
                "color": color_label(case.color),
                "guard": case.guard.name,
            }
            for case in session_spec.encoding.cases
        ],
        "default_sizes": dict(snapshot.default_sizes),
        "invariants": snapshot.invariant_count,
    }
    encoding_hash = SnapshotStore(cache_dir).store(snapshot, meta)
    answer = None
    if job_request is not None:
        answer = _answer(session_spec.engine(solver, snapshot), *job_request)
    return encoding_hash, meta, answer


def _scenario_job(spec_kwargs: dict, wire_deadline) -> dict:
    """Worker body for the ``size`` op: a full minimal-size search."""
    spec = ScenarioSpec(**spec_kwargs)
    deadline = Deadline.from_wire(
        tuple(wire_deadline) if wire_deadline is not None else None
    )
    result = run_scenario(
        spec, query_jobs=1, backend="process", deadline=deadline
    )
    return {
        "minimal_size": result.minimal_size,
        "probes": {
            str(size): free for size, free in sorted(result.probes.items())
        },
        "timed_out": bool(deadline.expired()) if deadline else False,
        "failure": result.failure,
    }


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class VerificationService:
    """Long-lived verification server over the three tiers.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk stores (snapshots + cold verdicts).
        Required — the content-addressed stores *are* the service.
    hot_capacity:
        Live sessions kept in-server under LRU eviction.
    jobs:
        Worker processes for builds and size searches (default
        :func:`~repro.core.parallel.default_jobs`).
    max_pending:
        Solve-requiring requests allowed to wait; beyond it requests
        are rejected with ``"overloaded"`` (cache hits always served).
    backend:
        ``"process"`` (default) or ``"thread"`` — the latter runs
        worker bodies on threads, for tests and 1-CPU hosts.
    """

    def __init__(
        self,
        cache_dir,
        hot_capacity: int = 8,
        jobs: int | None = None,
        max_pending: int = 64,
        backend: str = "process",
    ):
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}")
        self.cache_dir = str(cache_dir)
        self.jobs = jobs if jobs is not None else default_jobs()
        self.backend = backend
        self.max_pending = max_pending
        self.verdicts = VerdictStore(self.cache_dir)
        self.snapshots = SnapshotStore(self.cache_dir)
        self.hot = LruSessionCache(hot_capacity)
        self._pool: Executor | None = None
        # Hot-tier solves and snapshot restores run here, off the event
        # loop; sized with the pool so hot traffic scales too.
        self._threads = ThreadPoolExecutor(
            max_workers=max(2, self.jobs),
            thread_name_prefix="svc-hot",
        )
        self._ehash_by_spec: dict[str, str] = {}
        self._spec_locks: dict[str, asyncio.Lock] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending = 0
        self._solve_sem = asyncio.Semaphore(max(1, self.jobs))
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()
        self._closed = False
        self.counters = {
            "queries": 0,
            "hits": {"cold": 0, "hot": 0, "build": 0},
            "coalesced": 0,
            "rejected": 0,
            "pool_recoveries": 0,
            "errors": 0,
        }

    # -- executors -------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = start_pool(self.jobs, self.backend)
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    async def _in_pool(self, fn, *args):
        """Dispatch a worker body on at most
        :data:`~repro.core.parallel.POOL_ATTEMPTS` pools, replacing each
        one a dead worker broke; the last break reaches the request."""
        loop = asyncio.get_running_loop()
        for attempt in range(1, POOL_ATTEMPTS + 1):
            pool = self._ensure_pool()
            try:
                return await loop.run_in_executor(pool, partial(fn, *args))
            except BrokenExecutor:
                self._discard_pool()
                self.counters["pool_recoveries"] += 1
                if attempt == POOL_ATTEMPTS:
                    raise

    async def _in_threads(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._threads, partial(fn, *args))

    # -- request plumbing ------------------------------------------------
    @staticmethod
    def _spec_of(request: dict) -> ScenarioSpec:
        spec = request.get("spec")
        if not isinstance(spec, dict) or "builder" not in spec:
            raise ServiceError(
                "request needs spec: {builder: name, kwargs: {...}}"
            )
        kwargs = spec.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise ServiceError("spec.kwargs must be an object")
        try:
            return ScenarioSpec(
                builder=str(spec["builder"]), kwargs=tuple(kwargs.items())
            )
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad spec: {error}") from error

    @staticmethod
    def _overrides_of(params: dict):
        sizes = params.get("sizes")
        if sizes is None:
            return None
        if isinstance(sizes, bool):
            raise ServiceError("sizes must be an int or {queue: int}")
        if isinstance(sizes, int):
            return sizes
        if isinstance(sizes, dict):
            try:
                return {str(k): int(v) for k, v in sorted(sizes.items())}
            except (TypeError, ValueError) as error:
                raise ServiceError(f"bad sizes: {error}") from error
        raise ServiceError("sizes must be an int or {queue: int}")

    @staticmethod
    def _deadline_of(request: dict) -> Deadline | None:
        seconds = request.get("deadline_s")
        if seconds is None:
            return None
        try:
            return Deadline(seconds=float(seconds))
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad deadline_s: {error}") from error

    @staticmethod
    def _resolve_case(params: dict, meta: dict) -> tuple[int, str]:
        """The ``verify_channel`` target: an index, a case label, or a
        ``{queue: name, color: label}`` pair → (case index, label)."""
        cases = meta["cases"]
        case = params.get("case")
        if case is None and "queue" in params:
            case = {
                "queue": params["queue"],
                "color": params.get("color"),
            }
        if isinstance(case, bool):
            raise ServiceError("case must be an index, label or object")
        if isinstance(case, int):
            if not 0 <= case < len(cases):
                raise ServiceError(
                    f"case index {case} out of range ({len(cases)} cases)"
                )
            return case, cases[case]["label"]
        if isinstance(case, str):
            for index, entry in enumerate(cases):
                if entry["label"] == case:
                    return index, entry["label"]
            raise ServiceError(f"no deadlock case labelled {case!r}")
        if isinstance(case, dict):
            subject = case.get("queue") or case.get("subject")
            color = case.get("color")
            for index, entry in enumerate(cases):
                if entry["subject"] == subject and (
                    color is None or entry["color"] == str(color)
                ):
                    return index, entry["label"]
            raise ServiceError(
                f"no deadlock case for subject {subject!r} color {color!r}"
            )
        raise ServiceError("verify_channel needs a case (index/label/object)")

    @staticmethod
    def _query_key(op: str, target, overrides) -> str:
        """Canonical cold-store key of one query against one encoding."""
        want_witness = op == "witness"
        sizes = (
            sorted(overrides.items())
            if isinstance(overrides, dict)
            else overrides
        )
        return canonical_json(
            {"target": target, "sizes": sizes, "witness": want_witness}
        )

    def _spec_lock(self, spec_sha: str) -> asyncio.Lock:
        lock = self._spec_locks.get(spec_sha)
        if lock is None:
            lock = self._spec_locks[spec_sha] = asyncio.Lock()
        return lock

    # -- tiers -----------------------------------------------------------
    def _lookup_ehash(self, spec_key: str) -> str | None:
        ehash = self._ehash_by_spec.get(spec_key)
        if ehash is None:
            ehash = self.snapshots.lookup(spec_key)
            if ehash is not None:
                self._ehash_by_spec[spec_key] = ehash
        return ehash

    async def _promote(self, ehash: str) -> WorkerSession:
        """The encoding's live session: the hot tier's entry, or on a
        miss one restore of the stored snapshot (the LRU may evict)."""
        entry = self.hot.get(ehash)
        if entry is None:
            snapshot = await self._in_threads(self.snapshots.load, ehash)
            if snapshot is None:
                # Forget the binding: the next request looks it up again,
                # finds the image damaged and rebuilds.
                self._ehash_by_spec = {
                    key: value
                    for key, value in self._ehash_by_spec.items()
                    if value != ehash
                }
                raise ServiceError(f"stored snapshot {ehash[:16]} does not read back")
            restored = await self._in_threads(WorkerSession, snapshot)
            # Another spec with this encoding may have restored it meanwhile.
            entry = self.hot.get(ehash)
            if entry is None:
                entry = restored
                self.hot.put(ehash, entry)
        return entry

    async def _ensure_built(
        self, spec: ScenarioSpec, spec_key: str, job_request=None
    ) -> tuple[str, dict, dict | None]:
        """The build tier: one pool trip builds, snapshots, persists and
        (optionally) answers the triggering query."""
        ehash, meta, answer = await self._in_pool(
            _build_job, self.cache_dir, spec.builder, spec.kwargs, job_request
        )
        self.snapshots.bind(spec_key, ehash)
        self._ehash_by_spec[spec_key] = ehash
        return ehash, meta, answer

    # -- op handlers -----------------------------------------------------
    async def handle_request(self, request: dict) -> dict:
        """One request → one response dict (the protocol-free core)."""
        request_id = request.get("id")
        op = request.get("op")
        started = asyncio.get_running_loop().time()
        try:
            if op == "ping":
                response = {"pong": True}
            elif op == "stats":
                response = {"stats": self.stats()}
            elif op == "shutdown":
                self._shutdown.set()
                response = {"stopping": True}
            elif op == "cases":
                response = await self._handle_cases(request)
            elif op == "size":
                response = await self._handle_size(request)
            elif op in _QUERY_OPS:
                response = await self._handle_query(request, op)
            else:
                raise ServiceError(f"unknown op {op!r}")
            response["ok"] = True
        except ServiceError as error:
            self.counters["errors"] += 1
            response = {"ok": False, "error": str(error)}
        except Exception as error:  # never kill the server on one request
            self.counters["errors"] += 1
            response = {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        response["id"] = request_id
        elapsed = asyncio.get_running_loop().time() - started
        response["elapsed_ms"] = round(elapsed * 1000.0, 3)
        return response

    async def _handle_cases(self, request: dict) -> dict:
        if not isinstance(request.get("spec"), dict):
            # Discovery: a spec-less ``cases`` request lists what can be
            # built — every registered builder with its protocol family
            # and keyword parameters (the shape of a valid spec).
            return {"builders": builder_catalog()}
        spec = self._spec_of(request)
        spec_key = spec.key()
        async with self._spec_lock(stable_hash(spec_key)):
            ehash = self._lookup_ehash(spec_key)
            if ehash is None:
                ehash, meta, _ = await self._ensure_built(spec, spec_key)
            else:
                meta = self.snapshots.meta(ehash) or {}
        return {
            "encoding_hash": ehash,
            "label": meta.get("label"),
            "cases": meta.get("cases", []),
            "default_sizes": meta.get("default_sizes", {}),
            "invariants": meta.get("invariants", 0),
        }

    async def _handle_size(self, request: dict) -> dict:
        base = self._spec_of(request)
        params = request.get("params") or {}
        deadline = self._deadline_of(request)
        spec_kwargs = {
            "builder": base.builder,
            "kwargs": base.kwargs,
            "mode": "search",
            "low": int(params.get("low", 1)),
            "max_size": int(params.get("max_size", 64)),
            "size_param": str(params.get("size_param", "queue_size")),
        }
        spec = ScenarioSpec(**spec_kwargs)
        bucket = "scenario-" + stable_hash(spec.key())[:32]
        qkey = canonical_json({"op": "size"})
        cached = self.verdicts.get(bucket, qkey)
        if cached is not None:
            self.counters["queries"] += 1
            self.counters["hits"]["cold"] += 1
            return {**cached, "cache": "cold"}
        result, _ = await self._single_flight(
            bucket,
            partial(self._solve_size, spec_kwargs, bucket, qkey, deadline),
        )
        return result

    async def _solve_size(
        self, spec_kwargs: dict, bucket: str, qkey: str, deadline
    ) -> dict:
        self.counters["queries"] += 1
        await self._admit()
        try:
            async with self._solve_sem:
                wire = deadline.to_wire() if deadline is not None else None
                answer = await self._in_pool(_scenario_job, spec_kwargs, wire)
        finally:
            self._pending -= 1
        self.counters["hits"]["build"] += 1
        response = {
            "minimal_size": answer["minimal_size"],
            "probes": answer["probes"],
        }
        if answer.get("failure"):
            raise ServiceError(f"size search failed: {answer['failure']}")
        if not answer.get("timed_out"):
            self.verdicts.put(bucket, qkey, response)
        else:
            response["timed_out"] = True
        return {**response, "cache": "build"}

    async def _handle_query(self, request: dict, op: str) -> dict:
        spec = self._spec_of(request)
        spec_key = spec.key()
        spec_sha = stable_hash(spec_key)
        params = request.get("params") or {}
        overrides = self._overrides_of(params)
        deadline = self._deadline_of(request)
        want_witness = op == "witness"

        # Cold store first: if the encoding is known and this exact
        # query is archived, answer without touching any solver.
        ehash = self._lookup_ehash(spec_key)
        target: int | None = None
        case_label: str | None = None
        if ehash is not None:
            meta = self.snapshots.meta(ehash) or {}
            if op == "verify_channel":
                target, case_label = self._resolve_case(params, meta)
            qkey = self._query_key(op, target, overrides)
            cached = self.verdicts.get(ehash, qkey)
            if cached is not None:
                self.counters["queries"] += 1
                self.counters["hits"]["cold"] += 1
                return {**cached, "cache": "cold"}

        flight_key = canonical_json(
            {"spec": spec_sha, "op": op, "params": {
                "case": params.get("case"),
                "queue": params.get("queue"),
                "color": params.get("color"),
                "sizes": overrides if not isinstance(overrides, dict)
                else sorted(overrides.items()),
            }}
        )
        result, _ = await self._single_flight(
            flight_key,
            partial(
                self._solve_query,
                spec, spec_key, spec_sha, op, params, overrides,
                deadline, want_witness,
            ),
        )
        return result

    async def _single_flight(self, key: str, thunk):
        """Coalesce concurrent identical requests onto one in-flight
        solve; every waiter gets (a shallow copy of) the same response."""
        existing = self._inflight.get(key)
        if existing is not None:
            self.counters["coalesced"] += 1
            self.counters["queries"] += 1
            result = await asyncio.shield(existing)
            return dict(result), True
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await thunk()
            future.set_result(result)
            return dict(result), False
        except BaseException as error:
            future.set_exception(error)
            # Consume the exception so un-awaited futures don't warn.
            future.exception()
            raise
        finally:
            del self._inflight[key]

    async def _admit(self) -> None:
        """Bounded-queue backpressure for solve-requiring requests."""
        if self._pending >= self.max_pending:
            self.counters["rejected"] += 1
            raise ServiceError("overloaded")
        self._pending += 1

    async def _solve_query(
        self, spec, spec_key, spec_sha, op, params, overrides,
        deadline, want_witness,
    ) -> dict:
        self.counters["queries"] += 1
        await self._admit()
        try:
            async with self._solve_sem:
                async with self._spec_lock(spec_sha):
                    return await self._solve_query_locked(
                        spec, spec_key, op, params, overrides,
                        deadline, want_witness,
                    )
        finally:
            self._pending -= 1

    async def _solve_query_locked(
        self, spec, spec_key, op, params, overrides, deadline, want_witness
    ) -> dict:
        wire = deadline.to_wire() if deadline is not None else None
        ehash = self._lookup_ehash(spec_key)
        if ehash is None:
            # Build tier: the pool builds, persists and answers in one
            # trip.  verify/witness target the master guard; a channel
            # query needs the case table first, so it builds bare and
            # falls through to the hot path below.
            job_request = None
            if op != "verify_channel":
                job_request = (None, overrides, want_witness, wire)
            ehash, meta, answer = await self._ensure_built(
                spec, spec_key, job_request
            )
            if answer is not None:
                self.counters["hits"]["build"] += 1
                qkey = self._query_key(op, None, overrides)
                return self._finish(ehash, qkey, None, answer, "build")
        meta = self.snapshots.meta(ehash) or {}
        target, case_label = None, None
        if op == "verify_channel":
            target, case_label = self._resolve_case(params, meta)
        qkey = self._query_key(op, target, overrides)
        cached = self.verdicts.get(ehash, qkey)
        if cached is not None:
            self.counters["hits"]["cold"] += 1
            return {**cached, "cache": "cold"}

        # Hot tier: the encoding's one live session in this process,
        # serialised per spec by the spec lock.
        entry = await self._promote(ehash)
        answer = await self._in_threads(
            _answer, entry, target, overrides, want_witness, wire
        )
        self.counters["hits"]["hot"] += 1
        return self._finish(ehash, qkey, case_label, answer, "hot")

    def _finish(
        self, ehash: str, qkey: str, case_label, answer: dict, tier: str
    ) -> dict:
        payload = dict(answer)
        if case_label is not None:
            payload["case"] = case_label
        if payload["verdict"] != "timeout":
            # TIMEOUT is a property of the request's budget, not of the
            # encoding — never archived.
            self.verdicts.put(ehash, qkey, payload)
        return {**payload, "cache": tier}

    # -- stats / lifecycle ----------------------------------------------
    def stats(self) -> dict:
        """Counters of the service so far.  ``terms_live`` is how many
        interned terms this process still holds after a sweep: the terms
        of live encodings, which stays bounded however many designs the
        service has built and evicted.  ``store`` also counts the verdict
        records appended, the syncer thread's ``fsync`` calls and the
        records it has not synced yet."""
        hits = dict(self.counters["hits"])
        return {
            "builders": {
                name: meta["family"]
                for name, meta in builder_catalog().items()
            },
            "queries": self.counters["queries"],
            "hits": hits,
            "coalesced": self.counters["coalesced"],
            "rejected": self.counters["rejected"],
            "errors": self.counters["errors"],
            "pool_recoveries": self.counters["pool_recoveries"],
            "evictions": self.hot.evictions,
            "hot_live": len(self.hot),
            "terms_live": live_terms(),
            "inflight": len(self._inflight),
            "pending": self._pending,
            "store": {
                "verdict_hits": self.verdicts.hits,
                "verdict_misses": self.verdicts.misses,
                "verdicts": len(self.verdicts),
                "records_written": self.verdicts.records_written,
                "fsyncs": self.verdicts.fsyncs,
                "unsynced": self.verdicts.unsynced,
            },
        }

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        self._connections.add(writer)

        async def _serve_one(request: dict) -> None:
            response = await self.handle_request(request)
            async with write_lock:
                try:
                    await write_frame(writer, response)
                except (ConnectionError, RuntimeError):
                    pass

        try:
            while not self._shutdown.is_set():
                try:
                    request = await read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    ValueError,
                ):
                    break
                task = asyncio.create_task(_serve_one(request))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Start listening; returns the asyncio server (``self.port``
        carries the bound port, for ``port=0`` ephemeral binds)."""
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None, "serve() first"
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop serving and release every held resource: hot sessions
        (via their ``close()`` contract), the worker pool, the hot
        thread executor and the verdict store's syncer, after its last
        sync — a clean shutdown leaks no child processes and leaves every
        archived verdict on disk."""
        if self._closed:
            return
        self._closed = True
        self._shutdown.set()
        # Unblock connection handlers parked on a read before waiting on
        # the server: 3.12's wait_closed() waits for every handler.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.hot.close_all()
        pool, self._pool = self._pool, None
        if pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, partial(pool.shutdown, wait=True)
            )
        self._threads.shutdown(wait=True)
        self.verdicts.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="ADVOCAT verification service (length-prefixed JSON/TCP)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7333)
    parser.add_argument(
        "--cache-dir", required=True, help="root of the snapshot and verdict stores"
    )
    parser.add_argument("--hot-capacity", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument(
        "--backend", choices=("process", "thread"), default="process"
    )
    args = parser.parse_args(argv)

    async def _run() -> None:
        service = VerificationService(
            cache_dir=args.cache_dir,
            hot_capacity=args.hot_capacity,
            jobs=args.jobs,
            backend=args.backend,
        )
        await service.serve(args.host, args.port)
        print(f"serving on {args.host}:{service.port}", flush=True)
        try:
            await service._shutdown.wait()
        finally:
            await service.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()

