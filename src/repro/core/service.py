"""Verification-as-a-service: an asyncio server over tiered caching.

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
* **three cache tiers**, consulted cheapest-first (see
  :mod:`repro.core.cache`): the cold :class:`VerdictStore` keyed by
  ``(encoding content hash, canonical query)`` — a hit answers without
  any solver; the hot :class:`LruSessionCache` of live in-server
  sessions (eviction calls ``close()``); the warm
  :class:`SnapshotStore` of pickled
  :class:`~repro.core.engine.SessionSnapshot` images that worker
  processes rehydrate (:class:`~repro.core.parallel.WorkerSession`)
  without re-running the build phase.
* **batching + single-flight** — concurrent identical requests share
  one in-flight future; concurrent *distinct* queries against one spec
  serialise through that spec's session (assumption-based guard
  queries on one warm solver) instead of spawning N sessions.
* **backpressure** — requests needing a solve beyond ``max_pending``
  outstanding are rejected with ``"overloaded"`` instead of queueing
  unboundedly; cache hits are always served.

Verdicts are cached by *content*, never by name: the key is
:meth:`SessionSnapshot.content_hash`, so differently labelled requests
that build the same encoding share one solve, and specs whose kwargs
differ at all never collide.  ``TIMEOUT`` verdicts are never cached —
a budget miss is a property of the request, not of the encoding.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import struct
import socket
import threading
from collections import OrderedDict
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
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
from .parallel import (
    WorkerSession,
    _process_context,
    default_jobs,
    shutdown_scenario_executors,
)
from .resilience import Deadline, RetryPolicy, maybe_inject
from .vars import color_label

__all__ = [
    "VerificationService",
    "ServiceClient",
    "AsyncServiceClient",
    "ServiceSession",
    "ServiceError",
    "read_frame",
    "write_frame",
]

#: Upper bound on one frame's JSON body — a spec description plus a
#: witness payload is kilobytes; anything near this is a framing error.
MAX_FRAME = 1 << 24

_QUERY_OPS = ("verify", "verify_channel", "witness")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(payload: Any) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Any:
    header = await reader.readexactly(4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = await reader.readexactly(length)
    return json.loads(body.decode())


async def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


# ---------------------------------------------------------------------------
# Worker bodies (module-level: picklable for the process pool; the thread
# backend runs the same functions in-process).  Each worker process keeps
# a small LRU of rehydrated sessions so steady traffic against a handful
# of encodings never re-reads a snapshot pickle.
# ---------------------------------------------------------------------------

_WORKER_CACHE_CAP = 4
_WORKER_CACHE: "OrderedDict[str, WorkerSession]" = OrderedDict()
_WORKER_LOCK = threading.Lock()


def _worker_session(
    cache_dir: str, encoding_hash: str, snapshot: SessionSnapshot | None = None
) -> WorkerSession:
    with _WORKER_LOCK:
        session = _WORKER_CACHE.get(encoding_hash)
        if session is not None:
            _WORKER_CACHE.move_to_end(encoding_hash)
            return session
    if snapshot is None:
        snapshot = SnapshotStore(cache_dir).load(encoding_hash)
        if snapshot is None:
            raise KeyError(f"no warm snapshot for {encoding_hash}")
    session = WorkerSession(snapshot)
    with _WORKER_LOCK:
        _WORKER_CACHE[encoding_hash] = session
        while len(_WORKER_CACHE) > _WORKER_CACHE_CAP:
            _WORKER_CACHE.popitem(last=False)
    return session


def _resolved_sizes(snapshot: SessionSnapshot, overrides):
    """A request's ``sizes`` override → the full pin list (or ``None``).

    ``resize_queues`` semantics: a partial map merges over the
    snapshot's default sizes, so the worker pins *every* queue — a
    partial pin list would leave capacities floating and change the
    verdict.
    """
    if overrides is None:
        return None
    merged = resolve_resize(
        dict(snapshot.default_sizes), overrides, snapshot.parametric
    )
    return tuple(sorted(merged.items()))


def _translate(session: WorkerSession, payload: tuple) -> dict:
    """Worker payload tuple → plain response dict (no snapshot needed
    on the serving side: uid→name mapping happens here, where the
    snapshot lives)."""
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
            names = dict(session.snapshot.solver.int_vars)
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


def _check_job(
    cache_dir: str,
    encoding_hash: str,
    target: int | None,
    overrides,
    want_witness: bool,
    wire_deadline,
) -> dict:
    """Answer one guard query on a tier-2-rehydrated worker session."""
    maybe_inject("service-worker")
    session = _worker_session(cache_dir, encoding_hash)
    return _answer(session, target, overrides, want_witness, wire_deadline)


def _build_job(
    cache_dir: str, builder: str, kwargs: tuple, job_request
) -> tuple[str, dict, dict | None]:
    """Cold miss: build the network, snapshot it into the warm store,
    and (optionally) answer the triggering query in the same trip."""
    maybe_inject("service-builder")
    spec = ScenarioSpec(builder=builder, kwargs=kwargs)
    session_spec = spec.session_spec(parametric_queues=True)
    session_spec.generate_invariants()
    snapshot = session_spec.snapshot()
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
        session = _worker_session(cache_dir, encoding_hash, snapshot)
        answer = _answer(session, *job_request)
    return encoding_hash, meta, answer


def _scenario_job(spec_kwargs: dict, wire_deadline) -> dict:
    """Worker body for the ``size`` op: a full minimal-size search."""
    maybe_inject("service-worker")
    spec = ScenarioSpec(**spec_kwargs)
    deadline = Deadline.from_wire(
        tuple(wire_deadline) if wire_deadline is not None else None
    )
    result = run_scenario(
        spec, query_jobs=1, backend="process", portfolio=False,
        deadline=deadline,
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
# Hot tier entries
# ---------------------------------------------------------------------------


class ServiceSession:
    """One hot-tier entry: a live worker session inside the server.

    Honours the session ``close()`` contract (idempotent; drops the
    solver so eviction reclaims the CNF arena immediately).  All calls
    are serialised by the service's per-spec lock — concurrent queries
    against one spec batch through this one session's guard API.
    """

    def __init__(self, encoding_hash: str, snapshot: SessionSnapshot):
        self.encoding_hash = encoding_hash
        self.worker: WorkerSession | None = WorkerSession(snapshot)
        self.closed = False

    def run(
        self, target, overrides, want_witness: bool, wire_deadline
    ) -> dict:
        if self.closed or self.worker is None:
            raise RuntimeError("hot session is closed")
        return _answer(self.worker, target, overrides, want_witness, wire_deadline)

    def close(self) -> None:
        self.worker = None
        self.closed = True


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class ServiceError(Exception):
    """A request-level failure reported to the client (never fatal)."""


class VerificationService:
    """Long-lived verification server over the three cache tiers.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk tiers (warm snapshots + cold verdicts).
        Required — the content-addressed stores *are* the service.
    hot_capacity:
        Live sessions kept in-server under LRU eviction.
    jobs:
        Worker processes for cache misses (default
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
        retry_policy: RetryPolicy | None = None,
    ):
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}")
        self.cache_dir = str(cache_dir)
        self.jobs = jobs if jobs is not None else default_jobs()
        self.backend = backend
        self.max_pending = max_pending
        self.retry_policy = retry_policy or RetryPolicy()
        self.verdicts = VerdictStore(self.cache_dir)
        self.snapshots = SnapshotStore(self.cache_dir)
        self.hot = LruSessionCache(hot_capacity)
        self._pool: Executor | None = None
        # Hot-tier solves and snapshot rehydration run here, off the
        # event loop; sized with the pool so hot traffic scales too.
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
            "hits": {"cold": 0, "hot": 0, "warm": 0, "build": 0},
            "coalesced": 0,
            "rejected": 0,
            "pool_recoveries": 0,
            "errors": 0,
        }

    # -- executors -------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="svc-worker"
                )
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=_process_context()
                )
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    async def _in_pool(self, fn, *args):
        """Dispatch a worker body, rebuilding a broken pool under the
        retry policy (same quarantine convention as the session layer)."""
        loop = asyncio.get_running_loop()
        for attempt in range(self.retry_policy.max_attempts):
            pool = self._ensure_pool()
            try:
                return await loop.run_in_executor(pool, partial(fn, *args))
            except BrokenExecutor:
                self._discard_pool()
                self.counters["pool_recoveries"] += 1
                if attempt + 1 >= self.retry_policy.max_attempts:
                    raise
                await asyncio.sleep(self.retry_policy.delay(attempt))
        raise RuntimeError("unreachable")

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

    async def _promote(self, ehash: str) -> ServiceSession | None:
        """Load a warm snapshot into the hot tier (LRU may evict)."""
        entry = self.hot.get(ehash)
        if entry is not None:
            return entry
        snapshot = await self._in_threads(self.snapshots.load, ehash)
        if snapshot is None:
            return None
        entry = ServiceSession(ehash, snapshot)
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

        entry = self.hot.get(ehash)
        if entry is not None and not entry.closed:
            answer = await self._in_threads(
                entry.run, target, overrides, want_witness, wire
            )
            self.counters["hits"]["hot"] += 1
            return self._finish(ehash, qkey, case_label, answer, "hot")

        # Warm tier: solve on a pool worker rehydrated from the pickled
        # snapshot, then promote this encoding into the hot tier so the
        # next distinct query solves in-server.
        answer = await self._in_pool(
            _check_job, self.cache_dir, ehash, target, overrides,
            want_witness, wire,
        )
        self.counters["hits"]["warm"] += 1
        await self._promote(ehash)
        return self._finish(ehash, qkey, case_label, answer, "warm")

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
        service has built and evicted."""
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
        thread executor and any scenario executors — a clean shutdown
        leaks no child processes."""
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
        shutdown_scenario_executors()


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


class ServiceClient:
    """Blocking client (tests, scripts): one outstanding request."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._seq = 0

    def request(
        self,
        op: str,
        spec: dict | None = None,
        params: dict | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        self._seq += 1
        payload: dict[str, Any] = {"id": self._seq, "op": op}
        if spec is not None:
            payload["spec"] = spec
        if params is not None:
            payload["params"] = params
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        self._sock.sendall(encode_frame(payload))
        header = self._file.read(4)
        if len(header) < 4:
            raise ConnectionError("server closed the connection")
        (length,) = struct.unpack(">I", header)
        body = self._file.read(length)
        if len(body) < length:
            raise ConnectionError("truncated frame")
        return json.loads(body.decode())

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncServiceClient:
    """Asyncio client: one outstanding request per connection (open
    several connections for concurrency — the load generator does)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._seq = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        op: str,
        spec: dict | None = None,
        params: dict | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        async with self._lock:
            self._seq += 1
            payload: dict[str, Any] = {"id": self._seq, "op": op}
            if spec is not None:
                payload["spec"] = spec
            if params is not None:
                payload["params"] = params
            if deadline_s is not None:
                payload["deadline_s"] = deadline_s
            await write_frame(self._writer, payload)
            return await read_frame(self._reader)

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


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
        "--cache-dir", required=True, help="root of the warm/cold tiers"
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
