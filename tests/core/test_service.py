"""Verification service: tiered caching, coalescing, lifecycle hygiene.

End-to-end coverage for the PR-9 service layer
(:mod:`repro.core.service`):

* the tier walk — a first query builds (``cache: "build"``), an
  identical repeat is archived (``"cold"``), and a *distinct* query on
  the same encoding restores its stored snapshot once into the hot tier,
  where it and every later distinct query answer in-server (``"hot"``),
  also after a restart;
* single-flight coalescing, bounded-queue backpressure, and the
  TIMEOUT-is-never-archived rule;
* the ``close()`` contract regression suite — idempotent on the session
  and on the worker engine the hot tier holds, and pool workers actually
  released (the chaos
  suite's no-leaked-children fixture is re-used verbatim);
* hot-tier LRU eviction under ``hot_capacity < distinct specs``, which
  leaves no evicted snapshot alive, and cold-tier persistence across a
  service restart on the same cache dir;
* pool recovery: a build worker killed once is replaced, and the
  service answers as a clean one does;
* the TCP protocol through both the asyncio and the blocking client.

Async scenarios run through ``asyncio.run`` inside sync tests (the
container has no pytest-asyncio); the process backend is exercised where
children/eviction are the point, the thread backend everywhere else.
"""

import asyncio
import gc
import multiprocessing
import sys
import threading
import time
import weakref

import pytest
from faults import inject

from repro.core import (
    AsyncServiceClient,
    ServiceClient,
    SessionSpec,
    VerificationService,
    VerificationSession,
    WorkerSession,
    parallel,
    server,
)
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh

pytestmark = pytest.mark.chaos

RUNNING = {"builder": "running_example", "kwargs": {"queue_size": 2}}
PRODCON = {"builder": "producer_consumer", "kwargs": {"queue_size": 2}}
RING = {"builder": "token_ring", "kwargs": {"n_stations": 3, "queue_size": 1}}


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every service test leaves no pool or child behind."""
    yield
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def run_service(scenario, **service_kwargs):
    """Spin a service up inside ``asyncio.run``, guarantee aclose()."""
    service_kwargs.setdefault("backend", "thread")
    service_kwargs.setdefault("jobs", 2)

    async def _main():
        service = VerificationService(**service_kwargs)
        try:
            return await scenario(service)
        finally:
            await service.aclose()

    return asyncio.run(_main())


# ---------------------------------------------------------------------------
# The tier walk
# ---------------------------------------------------------------------------


def test_tier_walk_build_cold_hot(tmp_path):
    async def scenario(service):
        first = await service.handle_request(
            {"id": 1, "op": "verify", "spec": RUNNING}
        )
        assert first["ok"] and first["cache"] == "build"
        assert first["verdict"] == "deadlock-free"
        assert first["unsat_core"], "eager solve must report a core"

        repeat = await service.handle_request(
            {"id": 2, "op": "verify", "spec": RUNNING}
        )
        assert repeat["cache"] == "cold"
        assert repeat["verdict"] == first["verdict"]
        assert repeat["unsat_core"] == first["unsat_core"]

        cases = await service.handle_request(
            {"id": 3, "op": "cases", "spec": RUNNING}
        )
        assert cases["ok"] and cases["cases"]
        assert cases["encoding_hash"]

        channel = await service.handle_request(
            {
                "id": 4,
                "op": "verify_channel",
                "spec": RUNNING,
                "params": {"case": 0},
            }
        )
        assert channel["ok"] and channel["cache"] == "hot"
        assert channel["case"] == cases["cases"][0]["label"]

        # The next distinct query answers on the same live session.
        hot = await service.handle_request(
            {
                "id": 5,
                "op": "verify_channel",
                "spec": RUNNING,
                "params": {"case": 1},
            }
        )
        assert hot["ok"] and hot["cache"] == "hot"

        stats = service.stats()
        assert stats["queries"] == 4  # "cases" is not a query
        assert stats["hits"] == {"build": 1, "cold": 1, "hot": 2}
        assert stats["hot_live"] == 1 and stats["pending"] == 0

    run_service(scenario, cache_dir=str(tmp_path))


def test_witness_and_size_queries(tmp_path):
    async def scenario(service):
        witness = await service.handle_request(
            {"id": 1, "op": "witness", "spec": RING}
        )
        assert witness["ok"] and witness["verdict"] == "deadlock-candidate"
        assert witness["witness"]["ints"], "sat verdict must carry a witness"
        assert witness["witness"]["blocked"]

        size = await service.handle_request(
            {"id": 2, "op": "size", "spec": PRODCON, "params": {"max_size": 8}}
        )
        assert size["ok"] and size["cache"] == "build"
        assert size["minimal_size"] >= 1 and size["probes"]

        again = await service.handle_request(
            {"id": 3, "op": "size", "spec": PRODCON, "params": {"max_size": 8}}
        )
        assert again["cache"] == "cold"
        assert again["minimal_size"] == size["minimal_size"]

    run_service(scenario, cache_dir=str(tmp_path))


def test_unknown_op_and_bad_spec_are_request_level_errors(tmp_path):
    async def scenario(service):
        bad_op = await service.handle_request({"id": 1, "op": "frobnicate"})
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]
        no_spec = await service.handle_request({"id": 2, "op": "verify"})
        assert not no_spec["ok"]
        # The server survives both: a good request still answers.
        ping = await service.handle_request({"id": 3, "op": "ping"})
        assert ping["ok"] and ping["pong"]
        assert service.stats()["errors"] == 2

    run_service(scenario, cache_dir=str(tmp_path))


def test_spec_less_cases_lists_builder_catalog(tmp_path):
    """A ``cases`` request without a spec is discovery: it answers with
    every registered builder, its family and keyword parameters — the
    shape of a valid spec — and ``stats`` carries the same families."""

    async def scenario(service):
        discovery = await service.handle_request({"id": 1, "op": "cases"})
        assert discovery["ok"]
        builders = discovery["builders"]
        assert builders["msi_mesh"]["family"] == "msi"
        assert builders["abstract_mi_ring"]["family"] == "abstract_mi"
        assert "queue_size" in builders["msi_torus"]["params"]

        stats = service.stats()
        assert stats["builders"]["mi_torus"] == "mi"
        assert stats["errors"] == 0  # discovery is not an error path

    run_service(scenario, cache_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# Coalescing, backpressure, deadlines
# ---------------------------------------------------------------------------


def test_concurrent_identical_queries_coalesce(tmp_path):
    async def scenario(service):
        responses = await asyncio.gather(
            *(
                service.handle_request({"id": i, "op": "verify", "spec": RING})
                for i in range(4)
            )
        )
        assert all(r["ok"] for r in responses)
        assert len({r["verdict"] for r in responses}) == 1
        stats = service.stats()
        assert stats["coalesced"] == 3
        assert stats["queries"] == 4
        # One solve answered everyone: exactly one non-coalesced hit.
        assert sum(stats["hits"].values()) == 1

    run_service(scenario, cache_dir=str(tmp_path))


def test_backpressure_rejects_when_overloaded(tmp_path):
    async def scenario(service):
        response = await service.handle_request(
            {"id": 1, "op": "verify", "spec": RUNNING}
        )
        assert not response["ok"] and response["error"] == "overloaded"
        assert service.stats()["rejected"] == 1

    run_service(scenario, cache_dir=str(tmp_path), max_pending=0)


def test_timeout_verdict_is_never_archived(tmp_path):
    async def scenario(service):
        timed = await service.handle_request(
            {"id": 1, "op": "verify", "spec": PRODCON, "deadline_s": 0.0}
        )
        assert timed["ok"] and timed["verdict"] == "timeout"

        # The budget expiry was the *request's* property, not the
        # encoding's: the repeat must re-solve (hot tier — the build
        # was archived even though the verdict was not) and succeed.
        fresh = await service.handle_request(
            {"id": 2, "op": "verify", "spec": PRODCON}
        )
        assert fresh["ok"] and fresh["cache"] == "hot"
        assert fresh["verdict"] == "deadlock-free"

        # Cached verdicts are served regardless of any deadline.
        cached = await service.handle_request(
            {"id": 3, "op": "verify", "spec": PRODCON, "deadline_s": 0.0}
        )
        assert cached["ok"] and cached["cache"] == "cold"
        assert cached["verdict"] == "deadlock-free"

    run_service(scenario, cache_dir=str(tmp_path))


def test_a_nan_deadline_is_a_bad_request(tmp_path):
    """JSON carries NaN, so a client can send it; it is no budget, and the
    service must not answer ``timeout`` for it on any tier."""

    async def scenario(service):
        await service.serve()
        client = await AsyncServiceClient.connect("127.0.0.1", service.port)
        try:
            for op in ("verify", "verify", "size"):
                response = await client.request(
                    op, spec=PRODCON, deadline_s=float("nan")
                )
                assert not response["ok"]
                assert response["error"].startswith("bad deadline_s")
            # Nothing was built for the rejected requests.
            built = await client.request("verify", spec=PRODCON)
            assert built["ok"] and built["cache"] == "build"
        finally:
            await client.aclose()

    run_service(scenario, cache_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# close() contract regressions
# ---------------------------------------------------------------------------


def test_verification_session_close_is_idempotent():
    session = VerificationSession(running_example(queue_size=2).network)
    session.add_invariants()
    before = session.verify().verdict
    session.close()
    session.close()  # idempotent
    # Local sessions hold no external resources: still usable.
    assert session.verify().verdict == before


def test_parallel_session_close_releases_workers_and_is_idempotent():
    spec = SessionSpec(running_example(queue_size=2).network)
    spec.generate_invariants()
    session = VerificationSession(
        spec=spec, jobs=2, backend="process"
    )
    results = session.verify_all_cases()
    assert results and multiprocessing.active_children()

    session.close()
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    session.close()  # second close: no-op, no error


def test_worker_session_close_is_idempotent():
    spec = SessionSpec(running_example(queue_size=2).network)
    spec.generate_invariants()
    entry = WorkerSession(spec.snapshot())
    assert entry.run(("check", None, None, False))[0] == "unsat"

    entry.close()
    entry.close()  # idempotent
    assert entry.solver is None  # the CNF arena is released
    with pytest.raises(RuntimeError):
        entry.run(("check", None, None, False))


def test_closing_a_worker_mid_check_lets_the_check_finish():
    # The hot tier evicts (closes) an entry from another request's
    # coroutine while a thread may still be solving on it: the running
    # check must finish, and only later runs may refuse.
    spec = SessionSpec(abstract_mi_mesh(2, 2, queue_size=2).network)
    spec.generate_invariants()
    snapshot = spec.snapshot()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            entry = WorkerSession(snapshot)
            outcomes = []

            def solve():
                try:
                    for target in range(len(spec.encoding.cases)):
                        job = ("check", target, None, True)
                        outcomes.append(entry.run(job)[0])
                except RuntimeError:
                    outcomes.append("closed")
                except Exception as error:  # recorded for the assertion
                    outcomes.append(repr(error))

            thread = threading.Thread(target=solve)
            thread.start()
            time.sleep(0.005)
            entry.close()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert outcomes and set(outcomes) <= {"sat", "unsat", "closed"}, outcomes
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Eviction and persistence (process backend)
# ---------------------------------------------------------------------------


def test_lru_eviction_under_load_and_restart_persistence(tmp_path):
    cache_dir = str(tmp_path)

    async def churn(service):
        for spec in (RUNNING, PRODCON):
            built = await service.handle_request({"op": "verify", "spec": spec})
            assert built["ok"]
            # A distinct query restores the encoding into the hot tier;
            # with capacity 1 the second spec evicts the first.
            promoted = await service.handle_request(
                {"op": "verify_channel", "spec": spec, "params": {"case": 0}}
            )
            assert promoted["ok"] and promoted["cache"] == "hot"
        stats = service.stats()
        assert stats["evictions"] >= 1
        assert stats["hot_live"] == 1

    run_service(
        churn, cache_dir=cache_dir, hot_capacity=1, backend="process"
    )
    assert multiprocessing.active_children() == []

    # A fresh service over the same cache dir serves archived verdicts
    # without touching a solver (content-addressed cold tier on disk).
    async def rehydrated(service):
        response = await service.handle_request(
            {"op": "verify", "spec": RUNNING}
        )
        assert response["ok"] and response["cache"] == "cold"
        assert response["verdict"] == "deadlock-free"

    run_service(rehydrated, cache_dir=cache_dir)


def test_a_restarted_service_restores_a_stored_encoding_once(
    tmp_path, monkeypatch
):
    cache_dir = str(tmp_path)

    async def build(service):
        cases = await service.handle_request({"op": "cases", "spec": RUNNING})
        assert cases["ok"] and cases["cases"]

    run_service(build, cache_dir=cache_dir)

    restores = []
    original_init = WorkerSession.__init__

    def counting_init(self, snapshot):
        restores.append(snapshot)
        original_init(self, snapshot)

    monkeypatch.setattr(WorkerSession, "__init__", counting_init)

    async def ask(service):
        channel = await service.handle_request(
            {"op": "verify_channel", "spec": RUNNING, "params": {"case": 0}}
        )
        assert channel["ok"] and channel["cache"] == "hot"
        again = await service.handle_request(
            {"op": "verify_channel", "spec": RUNNING, "params": {"case": 1}}
        )
        assert again["ok"] and again["cache"] == "hot"
        hits = service.stats()["hits"]
        assert hits["build"] == 0 and hits["hot"] == 2

    run_service(ask, cache_dir=cache_dir)
    # One restore answers both queries.
    assert len(restores) == 1


def test_the_build_tier_answers_on_the_solver_it_snapshotted(
    tmp_path, monkeypatch
):
    restores = []
    original_init = WorkerSession.__init__

    def counting_init(self, snapshot):
        restores.append(snapshot)
        original_init(self, snapshot)

    monkeypatch.setattr(WorkerSession, "__init__", counting_init)

    async def scenario(service):
        first = await service.handle_request({"op": "verify", "spec": RUNNING})
        assert first["ok"] and first["cache"] == "build"
        assert first["verdict"] == "deadlock-free"
        cases = await service.handle_request({"op": "cases", "spec": RUNNING})
        return cases["encoding_hash"]

    stored_hash = run_service(scenario, cache_dir=str(tmp_path))
    # No restore: the build loaded one solver, stored its image and
    # answered on it.  The stored image is the spec's cold snapshot.
    assert restores == []
    spec = SessionSpec(running_example(queue_size=2).network)
    spec.generate_invariants()
    assert stored_hash == spec.snapshot().content_hash()


def test_the_snapshot_store_keeps_no_evicted_snapshot_alive(tmp_path):
    loaded = []

    async def scenario(service):
        load = service.snapshots.load

        def tracked_load(encoding_hash):
            snapshot = load(encoding_hash)
            loaded.append(weakref.ref(snapshot))
            return snapshot

        service.snapshots.load = tracked_load
        for spec in (RUNNING, PRODCON, RING):
            built = await service.handle_request({"op": "verify", "spec": spec})
            assert built["ok"] and built["cache"] == "build"
            promoted = await service.handle_request(
                {"op": "verify_channel", "spec": spec, "params": {"case": 0}}
            )
            assert promoted["ok"] and promoted["cache"] == "hot"
        assert service.stats()["evictions"] == 2
        gc.collect()
        return sum(ref() is not None for ref in loaded)

    live = run_service(scenario, cache_dir=str(tmp_path), hot_capacity=1)
    assert len(loaded) == 3
    # No session holds its snapshot: the hot tier's one session keeps
    # only the name tables, its CNF lives in the restored solver.
    assert live == 0


def test_a_snapshot_damaged_while_serving_fails_once_then_rebuilds(tmp_path):
    async def scenario(service):
        cases = await service.handle_request({"op": "cases", "spec": RUNNING})
        pkl = tmp_path / "snapshots" / f"{cases['encoding_hash']}.pkl"
        pkl.write_bytes(b"not a pickle")
        request = {"op": "verify_channel", "spec": RUNNING, "params": {"case": 0}}
        damaged = await service.handle_request(request)
        assert not damaged["ok"] and "does not read back" in damaged["error"]
        rebuilt = await service.handle_request(request)
        assert rebuilt["ok"] and rebuilt["cache"] == "hot"
        assert service.stats()["hits"] == {"cold": 0, "hot": 1, "build": 0}

    run_service(scenario, cache_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# Pool recovery (process backend)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    parallel._process_context().get_start_method() != "fork",
    reason="pool workers inherit an injected fault only under fork",
)
def test_a_killed_build_worker_is_replaced_and_answers_like_a_clean_one(
    tmp_path,
):
    requests = [
        {"op": "verify", "spec": RUNNING},
        {"op": "witness", "spec": RING},
        {"op": "verify_channel", "spec": RUNNING, "params": {"case": 0}},
    ]

    async def scenario(service):
        answers = []
        for request in requests:
            response = await service.handle_request(dict(request))
            assert response["ok"], response
            answers.append(
                {
                    key: response.get(key)
                    for key in ("verdict", "unsat_core", "witness", "cache", "case")
                }
            )
        return answers, service.stats()["pool_recoveries"]

    clean, clean_recoveries = run_service(
        scenario, cache_dir=str(tmp_path / "clean"), backend="process"
    )
    latch = tmp_path / "latch"
    latch.mkdir()
    with inject(server, "_build_job", "kill", latch=latch):
        faulted, recoveries = run_service(
            scenario, cache_dir=str(tmp_path / "faulted"), backend="process"
        )
    assert faulted == clean
    assert (clean_recoveries, recoveries) == (0, 1)


# ---------------------------------------------------------------------------
# The wire protocol
# ---------------------------------------------------------------------------


def test_tcp_round_trip_with_both_clients(tmp_path):
    async def scenario(service):
        await service.serve()
        port = service.port

        client = await AsyncServiceClient.connect("127.0.0.1", port)
        pong = await client.request("ping")
        assert pong["ok"] and pong["pong"] and pong["id"] == 1
        first = await client.request("verify", spec=RUNNING)
        assert first["ok"] and first["cache"] == "build"

        def blocking_calls():
            with ServiceClient("127.0.0.1", port) as sync_client:
                ping = sync_client.request("ping")
                repeat = sync_client.request("verify", spec=RUNNING)
                stats = sync_client.request("stats")
                return ping, repeat, stats

        ping, repeat, stats = await asyncio.to_thread(blocking_calls)
        assert ping["pong"]
        assert repeat["cache"] == "cold"
        assert repeat["verdict"] == first["verdict"]
        assert stats["stats"]["queries"] == 2

        stopping = await client.request("shutdown")
        assert stopping["ok"] and stopping["stopping"]
        assert service._shutdown.is_set()
        await client.aclose()

    run_service(scenario, cache_dir=str(tmp_path))
