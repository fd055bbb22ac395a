"""Content-addressed caching primitives: hashes, atomic writes, tiers.

The service layer (PR 9) keys everything on two canonical identities —
``ScenarioSpec.key()`` for *what was asked* and
``SessionSnapshot.content_hash()`` for *what was encoded* — so the
hypothesis sections here pin the invariances those keys promise:

* ``ScenarioSpec.key()`` ignores kwarg ordering and the scheduling-only
  knobs (``query_jobs``, ``label``);
* ``content_hash()`` ignores search state (learned clauses, saved
  phases) and survives pickle round-trips and rebuilds, while still
  separating genuinely different encodings.

The rest covers the storage substrate: crash-safe atomic writes (a
failed replace must leave the original intact and no temp droppings),
the cold :class:`~repro.core.cache.VerdictStore` (its logs across torn
lines, reopens and a SIGKILL, and its group commit), the
:class:`~repro.core.cache.SnapshotStore` (its index log, and damaged
files counting as missing), and the hot
:class:`~repro.core.cache.LruSessionCache` eviction contract.
"""

import asyncio
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LruSessionCache,
    ScenarioSpec,
    SessionSpec,
    SnapshotStore,
    VerdictStore,
    VerificationService,
    VerificationSession,
    WorkerSession,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    sha_bytes,
    stable_hash,
    verdict_sha,
)
from repro.netlib import producer_consumer, running_example
from repro.smt import snapshot_solver

_SRC = Path(__file__).resolve().parents[2] / "src"


def _network(queue_size=2):
    return running_example(queue_size=queue_size).network


# ---------------------------------------------------------------------------
# Hash helpers
# ---------------------------------------------------------------------------


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=8),
)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_scalars, max_size=5))
def test_stable_hash_ignores_key_insertion_order(payload):
    reordered = dict(sorted(payload.items(), reverse=True))
    assert stable_hash(payload) == stable_hash(reordered)
    assert canonical_json(payload) == canonical_json(reordered)


def test_verdict_sha_matches_historic_bench_helper():
    # The committed BENCH_* baselines were produced by per-bench
    # ``hashlib.sha256(json.dumps(payload, separators=(",", ":")) ...``
    # helpers; the shared function must stay byte-compatible with them
    # (note: no sort_keys — list payloads carry their own order).
    payload = [["a", 1], ["b", 0], "unsat", "sat"]
    expected = hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    assert verdict_sha(payload) == expected
    assert len(verdict_sha(payload)) == 16


def test_sha_bytes_is_full_sha256():
    data = b"verdict-bytes"
    assert sha_bytes(data) == hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def test_atomic_write_creates_parents_and_round_trips(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.json"
    atomic_write_json(target, {"b": 2, "a": 1})
    assert json.loads(target.read_text()) == {"a": 1, "b": 2}
    atomic_write_text(target, "plain")
    assert target.read_text() == "plain"
    atomic_write_bytes(target, b"\x00raw")
    assert target.read_bytes() == b"\x00raw"


def test_atomic_write_failure_preserves_original(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("original")

    def exploding_replace(src, dst):
        raise OSError("simulated replace failure")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        atomic_write_text(target, "clobber")
    monkeypatch.undo()
    # Original untouched, and the temp file was cleaned up.
    assert target.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.txt"]


# ---------------------------------------------------------------------------
# ScenarioSpec.key(): canonical request identity
# ---------------------------------------------------------------------------


kwarg_dicts = st.dictionaries(
    st.sampled_from(["width", "height", "queue_size", "n_stations", "x"]),
    st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(kwargs=kwarg_dicts, data=st.data())
def test_scenario_spec_key_invariant_under_kwarg_order(kwargs, data):
    items = list(kwargs.items())
    shuffled = data.draw(st.permutations(items))
    a = ScenarioSpec(builder="abstract_mi_mesh", kwargs=kwargs)
    b = ScenarioSpec(builder="abstract_mi_mesh", kwargs=tuple(shuffled))
    assert a.key() == b.key()
    assert stable_hash(a.key()) == stable_hash(b.key())


@settings(max_examples=20, deadline=None)
@given(
    query_jobs=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    label=st.one_of(st.none(), st.text(max_size=10)),
)
def test_scenario_spec_key_ignores_scheduling_hints(query_jobs, label):
    base = ScenarioSpec(builder="producer_consumer", kwargs={"queue_size": 2})
    hinted = ScenarioSpec(
        builder="producer_consumer",
        kwargs={"queue_size": 2},
        query_jobs=query_jobs,
        label=label,
    )
    assert base.key() == hinted.key()


def test_scenario_spec_key_separates_different_requests():
    a = ScenarioSpec(builder="producer_consumer", kwargs={"queue_size": 2})
    b = ScenarioSpec(builder="producer_consumer", kwargs={"queue_size": 3})
    c = ScenarioSpec(builder="token_ring", kwargs={"queue_size": 2})
    assert len({a.key(), b.key(), c.key()}) == 3


# ---------------------------------------------------------------------------
# SessionSnapshot.content_hash(): canonical encoding identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_hash():
    spec = SessionSpec(_network())
    spec.generate_invariants()
    return spec.snapshot().content_hash()


@settings(max_examples=8, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
def test_content_hash_ignores_scheduling_hints(reference_hash, sizes):
    # The hash names the *encoding* (CNF image, atoms, guards, defaults),
    # not the search state: learned clauses and saved phases must not
    # move it, or a warm snapshot would miss every tier a cold one filled.
    spec = SessionSpec(_network())
    spec.generate_invariants()
    session = VerificationSession(spec=spec)
    for size in sizes:
        session.resize_queues(size)
        session.verify()
    warm = snapshot_solver(session.solver, include_learned=True)
    assert warm.learned and warm.phases
    cold = snapshot_solver(session.solver)
    assert (
        spec.wrap_solver_snapshot(warm).content_hash()
        == spec.wrap_solver_snapshot(cold).content_hash()
    )
    # The same search state on the as-built image leaves the built hash.
    image = dataclasses.replace(
        snapshot_solver(spec.load_solver()),
        learned=warm.learned,
        phases=warm.phases,
    )
    assert spec.wrap_solver_snapshot(image).content_hash() == reference_hash


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=3))
def test_content_hash_survives_pickle_round_trips(reference_hash, rounds):
    spec = SessionSpec(_network())
    spec.generate_invariants()
    snapshot = spec.snapshot()
    for _ in range(rounds):
        snapshot = pickle.loads(pickle.dumps(snapshot))
    assert snapshot.content_hash() == reference_hash


def test_a_snapshot_pickled_by_an_older_release_restores_and_answers(
    reference_hash,
):
    # Stored snapshots outlive upgrades: this pickle of the running
    # example's snapshot (invariants generated, as the service stores
    # them) was written by a release whose solver image still carried
    # the clause-reduction policy and the split budget.  It loads, keeps
    # its content hash, and a worker restored from it answers every case
    # at every size like a fresh session.
    image = (Path(__file__).parent / "data" / "running_example_snapshot.pkl").read_bytes()
    old = pickle.loads(image)
    assert {"reduction", "reduction_knobs", "max_splits"} <= set(vars(old.solver))
    assert old.content_hash() == reference_hash
    worker = WorkerSession(old)
    spec = SessionSpec(_network())
    fresh = VerificationSession(spec=spec)
    fresh.add_invariants()
    for size in (1, 2, 3):
        fresh.resize_queues(size)
        sizes = tuple((name, size) for name, _ in old.default_sizes)
        answers = [
            worker.check(target, sizes, want_witness=False)[0] == "unsat"
            for target in (None, *range(len(old.case_guard_names)))
        ]
        assert answers == [fresh.verify().deadlock_free] + [
            result.deadlock_free for result in fresh.verify_all_cases()
        ], size


def test_content_hash_is_rebuild_stable_and_discriminating(reference_hash):
    # Two independent builds allocate different process-local uids; the
    # rank-renumbered payload must hash identically anyway.
    spec = SessionSpec(_network())
    spec.generate_invariants()
    assert spec.snapshot().content_hash() == reference_hash
    # ... while a genuinely different encoding must not collide.
    other = SessionSpec(producer_consumer(queue_size=2))
    other.generate_invariants()
    assert other.snapshot().content_hash() != reference_hash
    # Invariants are part of the encoding (they strengthen the CNF).
    bare = SessionSpec(_network())
    assert bare.snapshot().content_hash() != reference_hash


# ---------------------------------------------------------------------------
# VerdictStore (cold tier)
# ---------------------------------------------------------------------------


def test_verdict_store_round_trip_and_counters(tmp_path):
    store = VerdictStore(tmp_path / "verdicts")
    qkey = canonical_json({"target": None, "sizes": [["q0", 2]]})
    assert store.get("ehash-a", qkey) is None
    payload = {"verdict": "deadlock-free", "unsat_core": ["cap[q0==2]"]}
    store.put("ehash-a", qkey, payload)
    assert store.get("ehash-a", qkey) == payload
    assert store.get("ehash-a", canonical_json({"other": 1})) is None
    assert store.hits == 1 and store.misses == 2
    assert len(store) == 1

    # Content-addressed on disk: a fresh instance over the same root
    # serves the verdict without recomputation.
    reopened = VerdictStore(tmp_path / "verdicts")
    assert reopened.get("ehash-a", qkey) == payload


def test_verdict_log_torn_mid_record_then_appended(tmp_path):
    store = VerdictStore(tmp_path)
    for i in range(3):
        store.put("ehash", f"q{i}", {"i": i})
    store.close()
    log = tmp_path / "verdicts" / "ehash.jsonl"
    torn = log.read_bytes()[:-10]  # cut inside the last record
    log.write_bytes(torn)

    writer = VerdictStore(tmp_path)
    writer.put("ehash", "q3", {"i": 3})
    writer.close()
    # The torn line was ended before the append, not glued onto it.
    assert log.read_bytes().startswith(torn + b"\n")

    reopened = VerdictStore(tmp_path)
    assert [reopened.get("ehash", f"q{i}") for i in range(4)] == [
        {"i": 0}, {"i": 1}, None, {"i": 3},
    ]


_verdict_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(["e1", "e2"]),
            st.sampled_from(["q1", "q2", "q3"]),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(
            st.just("get"),
            st.sampled_from(["e1", "e2"]),
            st.sampled_from(["q1", "q2", "q3"]),
        ),
        st.tuples(st.just("close")),
        st.tuples(st.just("reopen")),
    ),
    max_size=20,
)


@settings(max_examples=30, deadline=None)
@given(_verdict_ops)
def test_verdict_store_serves_first_payload_across_reopens(ops):
    with tempfile.TemporaryDirectory() as root:
        store = VerdictStore(root)
        first: dict[tuple[str, str], dict] = {}
        for op, *args in ops:
            if op == "put":
                ehash, query, value = args
                store.put(ehash, query, {"value": value})
                first.setdefault((ehash, query), {"value": value})
            elif op == "get":
                assert store.get(*args) == first.get(tuple(args))
            else:
                store.close()
                if op == "reopen":
                    store = VerdictStore(root)
        store.close()
        reopened = VerdictStore(root)
        for ehash in ("e1", "e2"):
            for query in ("q1", "q2", "q3"):
                key = (ehash, query)
                assert reopened.get(*key) == first.get(key)


_PUT_FOREVER = """
import sys
from repro.core import VerdictStore
store = VerdictStore(sys.argv[1])
i = 0
while True:
    store.put("ehash-%d" % (i % 3), "q%d" % i, {"i": i})
    print(i, flush=True)
    i += 1
"""


@pytest.mark.chaos
def test_verdict_store_keeps_every_returned_put_across_sigkill(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", _PUT_FOREVER, str(tmp_path)],
        env=env,
        stdout=subprocess.PIPE,
    )
    reported = []
    try:
        for line in child.stdout:
            reported.append(int(line))
            if len(reported) == 300:
                break
    finally:
        child.kill()  # SIGKILL: no close(), no final sync
        rest = child.stdout.read()
        child.stdout.close()
        child.wait(timeout=30)
    reported += [int(token) for token in rest.split()]
    assert len(reported) >= 300

    reopened = VerdictStore(tmp_path)
    for i in reported:
        assert reopened.get(f"ehash-{i % 3}", f"q{i}") == {"i": i}
    # Puts that never reported back are either whole or missing.
    for i in range(max(reported) + 1, max(reported) + 50):
        assert reopened.get(f"ehash-{i % 3}", f"q{i}") in (None, {"i": i})


def test_verdict_store_burst_shares_fsyncs(tmp_path, monkeypatch):
    # A disk whose fsync takes 10 ms, whatever the file system under
    # tmp_path: the puts made while one sync runs share the next.
    real_fsync = os.fsync

    def slow_fsync(fd):
        time.sleep(0.01)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", slow_fsync)
    store = VerdictStore(tmp_path)
    for i in range(100):
        store.put("ehash", f"q{i}", {"i": i})
    assert store.records_written == 100
    store.close()
    assert store.unsynced == 0
    assert 1 <= store.fsyncs < store.records_written


def test_verdict_store_counts_survive_fine_thread_switching(tmp_path):
    # The putting thread and the syncer share the counters and the set
    # of logs to sync; switching threads every microsecond would expose
    # a lost update as a record counted unsynced after close().
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        store = VerdictStore(tmp_path)
        for i in range(600):
            store.put(f"ehash-{i % 3}", f"q{i}", {"i": i})
            assert 0 <= store.unsynced <= store.records_written
        store.close()
    finally:
        sys.setswitchinterval(interval)
    assert store.records_written == 600 and store.unsynced == 0
    reopened = VerdictStore(tmp_path)
    assert all(
        reopened.get(f"ehash-{i % 3}", f"q{i}") == {"i": i} for i in range(600)
    )


# ---------------------------------------------------------------------------
# SnapshotStore
# ---------------------------------------------------------------------------


def test_snapshot_store_round_trip(tmp_path):
    spec = SessionSpec(_network())
    spec.generate_invariants()
    snapshot = spec.snapshot()
    store = SnapshotStore(tmp_path / "snapshots")
    meta = {"builder": "running_example", "cases": []}
    ehash = store.store(snapshot, meta)
    assert ehash == snapshot.content_hash()
    assert store.snapshot_path(ehash).exists()
    assert store.meta(ehash)["builder"] == "running_example"

    loaded = store.load(ehash)
    assert loaded.content_hash() == ehash

    # The spec-key index maps request identity -> encoding identity.
    spec_key = ScenarioSpec(
        builder="running_example", kwargs={"queue_size": 2}
    ).key()
    assert store.lookup(spec_key) is None
    store.bind(spec_key, ehash)
    assert store.lookup(spec_key) == ehash
    # Bindings persist across instances (index.json on disk).
    assert SnapshotStore(tmp_path / "snapshots").lookup(spec_key) == ehash


def test_snapshot_index_appends_over_a_legacy_index(tmp_path):
    spec = SessionSpec(_network())
    snapshot = spec.snapshot()
    ehash = SnapshotStore(tmp_path).store(snapshot, {"cases": []})
    root = tmp_path / "snapshots"
    # An older release's index.json is not read: its bindings miss, and
    # each spec is built (and bound) once more.
    atomic_write_json(root / "index.json", {stable_hash("spec-a"): ehash})

    store = SnapshotStore(tmp_path)
    assert store.lookup("spec-a") is None
    store.bind("spec-a", ehash)
    store.bind("spec-b", "0" * 64)
    assert store.lookup("spec-b") is None  # bound, but no snapshot
    store.bind("spec-b", ehash)
    store.bind("spec-b", ehash)  # already current: nothing appended
    assert len((root / "index.jsonl").read_bytes().splitlines()) == 3

    reopened = SnapshotStore(tmp_path)
    for key in ("spec-a", "spec-b"):
        assert reopened.lookup(key) == ehash  # the last binding wins


@pytest.mark.parametrize(
    "damage", ["garbage-pkl", "foreign-pkl", "foreign-pair", "torn-meta"]
)
def test_unreadable_warm_tier_files_count_as_missing(tmp_path, damage):
    running = {"builder": "running_example", "kwargs": {"queue_size": 2}}
    prodcon = {"builder": "producer_consumer", "kwargs": {"queue_size": 2}}

    async def ask(op, spec, **params):
        service = VerificationService(
            cache_dir=str(tmp_path), backend="thread", jobs=1
        )
        try:
            request = {"op": op, "spec": spec, "params": params}
            return await service.handle_request(request), service
        finally:
            await service.aclose()

    first, closed = asyncio.run(ask("verify", running))
    assert first["ok"] and first["cache"] == "build"
    # aclose() ran the last sync.
    store = closed.stats()["store"]
    assert store["records_written"] == 1
    assert store["fsyncs"] >= 1 and store["unsynced"] == 0
    cases, _ = asyncio.run(ask("cases", running))
    other, _ = asyncio.run(ask("cases", prodcon))

    pkl = tmp_path / "snapshots" / f"{cases['encoding_hash']}.pkl"
    if damage == "garbage-pkl":
        pkl.write_bytes(b"not a pickle")
    elif damage.startswith("foreign"):
        foreign = pkl.with_name(f"{other['encoding_hash']}.pkl")
        pkl.write_bytes(foreign.read_bytes())
        if damage == "foreign-pair":
            sidecar = foreign.with_suffix(".meta.json").read_bytes()
            pkl.with_suffix(".meta.json").write_bytes(sidecar)
    else:
        sidecar = pkl.with_suffix(".meta.json")
        sidecar.write_bytes(sidecar.read_bytes()[:20])

    again, _ = asyncio.run(ask("verify", running))
    assert again["ok"] and again["cache"] == "build"
    assert again["verdict"] == first["verdict"]
    repaired, _ = asyncio.run(ask("cases", running))
    assert repaired["ok"] and repaired["cases"] == cases["cases"]
    channel, _ = asyncio.run(ask("verify_channel", running, case=0))
    assert channel["ok"] and channel["case"] == cases["cases"][0]["label"]


# ---------------------------------------------------------------------------
# LruSessionCache (hot tier)
# ---------------------------------------------------------------------------


class _FakeSession:
    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1


def test_lru_cache_evicts_least_recent_and_closes(tmp_path):
    cache = LruSessionCache(capacity=2)
    a, b, c = _FakeSession(), _FakeSession(), _FakeSession()
    cache.put("a", a)
    cache.put("b", b)
    assert cache.get("a") is a  # refresh: "b" is now least-recent
    cache.put("c", c)
    assert cache.evictions == 1
    assert b.closed == 1 and a.closed == 0 and c.closed == 0
    assert cache.get("b") is None and len(cache) == 2

    cache.close_all()
    assert a.closed == 1 and c.closed == 1 and len(cache) == 0


def test_lru_cache_put_replaces_and_closes_previous():
    cache = LruSessionCache(capacity=2)
    old, new = _FakeSession(), _FakeSession()
    cache.put("k", old)
    cache.put("k", old)  # re-putting the same entry must not close it
    assert old.closed == 0
    cache.put("k", new)
    assert old.closed == 1 and cache.get("k") is new and len(cache) == 1
