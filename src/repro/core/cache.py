"""Content-addressed caching primitives for verification-as-a-service.

The service (:mod:`repro.core.server`) answers queries from these
stores, cheapest first:

* **cold store** (:class:`VerdictStore`) — a content-addressed verdict
  archive keyed by ``(encoding_hash, query_key)``, kept in one
  append-only log per encoding.  A hit costs one dict lookup (a log is
  memoised on first read); a million identical mesh queries cost
  exactly one solve.
* **hot tier** (:class:`LruSessionCache`) — live sessions under LRU
  eviction.  Eviction calls the entry's ``close()``, which drops its
  solver.
* **snapshot store** (:class:`SnapshotStore`) — pickled
  :class:`~repro.core.engine.SessionSnapshot` images on disk keyed by
  :meth:`~repro.core.engine.SessionSnapshot.content_hash`, plus an index
  mapping :meth:`~repro.core.experiments.ScenarioSpec.key` identities to
  encoding hashes so a request can reach its snapshot without building
  the network.  The hot tier restores each of its sessions from here.

Snapshots and their sidecars are written through
:func:`atomic_write_bytes` — serialise to a temp file in the *same
directory*, ``fsync``, then ``os.replace`` — so a crash mid-write can
corrupt neither: readers see either the old image or the new one,
never a torn file.  The same helper backs ``ExperimentResult.save``
checkpoints.

The verdict logs and the spec index are appended to instead, one
canonical JSON line per record in a single ``write``.  Their contract
is weaker and cheaper: a killed process loses nothing whose append
returned; an OS crash or power loss can lose the verdicts the syncer
thread has not yet synced, and can leave a torn last line, which
readers skip and the next writer ends.  Every archived answer can be
derived again, so the store can miss a verdict but never serves a
wrong one.

This module also hosts the canonical hashing helpers that the
benchmarks previously each re-implemented: :func:`verdict_sha` (16-hex
SHA-256 over a canonical JSON payload) and :func:`sha_bytes` (the same
digest over pre-canonicalised bytes).  They are byte-compatible with
the historic per-bench copies — committed baseline SHAs do not move.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "canonical_json",
    "stable_hash",
    "verdict_sha",
    "sha_bytes",
    "VerdictStore",
    "SnapshotStore",
    "LruSessionCache",
]


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target's directory so the final rename
    never crosses a filesystem boundary (``os.replace`` is atomic only
    within one).  On any failure the temp file is removed and the
    original file — if there was one — is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, payload: Any, indent: int = 2) -> None:
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


# ---------------------------------------------------------------------------
# Canonical hashing (``hashlib`` loads OpenSSL, several MiB, so it is
# imported by the functions that hash: a process that never hashes never
# loads it)
# ---------------------------------------------------------------------------


def canonical_json(payload: Any) -> str:
    """The one canonical JSON form: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: Any) -> str:
    """Full SHA-256 hex digest of ``payload``'s canonical JSON form."""
    import hashlib

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def verdict_sha(payload: Any) -> str:
    """16-hex SHA-256 over ``payload`` serialised exactly as the benchmark
    records historically did: ``json.dumps(payload, separators=(",",":"))``
    with **no** key sorting — callers pre-canonicalise (sorted lists of
    pairs, verdict-value lists) so committed baseline SHAs stay fixed."""
    return sha_bytes(json.dumps(payload, separators=(",", ":")).encode())


def sha_bytes(data: bytes) -> str:
    """16-hex SHA-256 over pre-canonicalised bytes (e.g. a snapshot
    image)."""
    import hashlib

    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Append-only logs
# ---------------------------------------------------------------------------


def _open_log(path: Path) -> int:
    """Open the log at ``path`` for appending, ending a torn last line.

    A process killed in the middle of an append can leave a last line
    without its newline.  Ending that line here keeps the next record
    from being glued onto it: the torn line alone is lost, and
    :func:`_read_log` skips it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.write(fd, b"\n")
    except BaseException:
        os.close(fd)
        raise
    return fd


def _append(fd: int, record: dict) -> None:
    """Append ``record`` as one canonical JSON line with a single
    ``write``, so concurrent appenders never interleave inside a line."""
    os.write(fd, (canonical_json(record) + "\n").encode())


def _read_log(path: Path) -> Iterator[dict]:
    """The records of the log at ``path`` in order; lines that do not
    parse as a JSON object are skipped, and a missing log is empty."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    for line in data.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            yield record


# ---------------------------------------------------------------------------
# Cold tier: content-addressed verdict store
# ---------------------------------------------------------------------------


class VerdictStore:
    """Content-addressed verdict archive keyed by ``(encoding_hash, query)``.

    Entries are canonical JSON payloads (verdict value plus whatever
    non-canonical extras the service chooses to keep — witnesses, cores).
    Disk layout: one append-only log per encoding,
    ``<root>/verdicts/<encoding_hash>.jsonl``, holding one canonical
    ``{"payload", "query"}`` record per line.  The first record for a
    key is its answer; a repeat :meth:`put` of a known key writes
    nothing.  :meth:`get` reads an encoding's log once per instance, on
    its first miss for that encoding, so steady-state hits and repeat
    misses never touch the filesystem.  Pass ``root=None`` for a
    memory-only store.

    :meth:`put` appends its record before it returns and leaves the
    ``fsync`` to a daemon syncer thread, started on the first put:
    each pass syncs every log written since the last one, so records
    appended while an ``fsync`` runs share the next (group commit).
    :meth:`close` runs a last sync and joins the thread.  Hence:

    * a killed process loses nothing whose :meth:`put` returned — the
      record is in the kernel already;
    * only an OS crash or power loss can lose the records not yet
      synced (``unsynced``);
    * the store can miss a verdict but never serves a wrong one: a
      lost verdict is solved again, and a torn line is skipped.

    Per-verdict files (``<encoding_hash>/<sha>.json``) of older
    releases are not read, so each such verdict is solved once more,
    as after a ``content_hash()`` change.
    """

    def __init__(self, root: str | Path | None) -> None:
        self.root = Path(root) / "verdicts" if root is not None else None
        self._memo: dict[tuple[str, str], dict] = {}
        self._read: set[str] = set()
        self._fds: dict[str, int] = {}
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._dirty: set[int] = set()
        self._syncer: threading.Thread | None = None
        self._closing = False
        self._synced = 0
        self.hits = 0
        self.misses = 0
        self.records_written = 0
        self.fsyncs = 0

    @property
    def unsynced(self) -> int:
        """Records appended but not yet covered by an ``fsync``."""
        return self.records_written - self._synced

    def _log_path(self, encoding_hash: str) -> Path:
        assert self.root is not None
        return self.root / f"{encoding_hash}.jsonl"

    def _read_once(self, encoding_hash: str) -> None:
        """Memoise ``encoding_hash``'s log, once per instance; the first
        record per key wins."""
        if self.root is None or encoding_hash in self._read:
            return
        self._read.add(encoding_hash)
        for record in _read_log(self._log_path(encoding_hash)):
            query, payload = record.get("query"), record.get("payload")
            if isinstance(query, str) and isinstance(payload, dict):
                self._memo.setdefault((encoding_hash, query), payload)

    def get(self, encoding_hash: str, query_key: str) -> dict | None:
        memo_key = (encoding_hash, query_key)
        payload = self._memo.get(memo_key)
        if payload is None:
            self._read_once(encoding_hash)
            payload = self._memo.get(memo_key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, encoding_hash: str, query_key: str, payload: dict) -> None:
        """Archive ``payload`` unless ``query_key`` already has an answer.
        Calls come from one thread at a time (the service's event loop);
        only the syncer runs beside them."""
        self._read_once(encoding_hash)
        memo_key = (encoding_hash, query_key)
        if memo_key in self._memo:
            return
        self._memo[memo_key] = payload
        if self.root is None:
            return
        fd = self._fds.get(encoding_hash)
        if fd is None:
            fd = self._fds[encoding_hash] = _open_log(
                self._log_path(encoding_hash)
            )
        _append(fd, {"query": query_key, "payload": payload})
        with self._lock:
            self.records_written += 1
            self._dirty.add(fd)
            if self._syncer is None:
                self._syncer = threading.Thread(
                    target=self._sync_loop, name="verdict-sync", daemon=True
                )
                self._syncer.start()
            self._wake.set()

    def _sync_loop(self) -> None:
        while True:
            self._wake.wait()
            with self._lock:
                self._wake.clear()
                dirty, self._dirty = self._dirty, set()
                written, closing = self.records_written, self._closing
            for fd in dirty:
                os.fsync(fd)
            with self._lock:
                self.fsyncs += len(dirty)
                self._synced = written
            if closing:
                return

    def close(self) -> None:
        """Sync every appended record, stop the syncer and close the
        logs.  Idempotent; a later :meth:`put` reopens what it needs."""
        with self._lock:
            syncer, self._syncer = self._syncer, None
            self._closing = syncer is not None
            self._wake.set()
        if syncer is not None:
            syncer.join()
        self._closing = False
        fds, self._fds = self._fds, {}
        for fd in fds.values():
            os.close(fd)

    def __len__(self) -> int:
        return len(self._memo)


# ---------------------------------------------------------------------------
# Snapshot store: pickled session snapshots
# ---------------------------------------------------------------------------


class SnapshotStore:
    """Pickled session snapshots keyed by encoding content hash.

    Two maps live here: ``<root>/snapshots/<hash>.pkl`` (the snapshot
    image, with a ``<hash>.meta.json`` sidecar for cheap metadata such
    as deadlock-case labels and default sizes) and the append-only
    ``<root>/snapshots/index.jsonl`` binding a spec identity (the SHA of
    ``ScenarioSpec.key()``) to its encoding hash, so repeat requests
    skip the network build entirely.  The last binding per spec wins;
    an ``index.json`` left by an older release is not read, so each of
    its specs is built once more.

    The sidecar names its encoding hash and the digest of the snapshot
    image beside it.  A sidecar that does not parse or names another
    encoding, and an image whose digest differs, count as missing: the
    request goes through the build tier, which writes both files again.
    Garbage is never unpickled.  Sidecars of older releases carry no
    digest, so each of their specs is built once more.  Pass
    ``root=None`` for a memory-only store (snapshots kept live, nothing
    pickled).
    """

    def __init__(self, root: str | Path | None) -> None:
        self.root = Path(root) / "snapshots" if root is not None else None
        self._index: dict[str, str] | None = None
        self._snapshots: dict[str, Any] = {}
        self._meta: dict[str, dict] = {}

    # -- spec-key index -------------------------------------------------
    def _index_path(self) -> Path:
        assert self.root is not None
        return self.root / "index.jsonl"

    def _load_index(self) -> dict[str, str]:
        if self._index is None:
            self._index = {}
            if self.root is not None:
                for record in _read_log(self._index_path()):
                    spec = record.get("spec")
                    encoding_hash = record.get("encoding")
                    if isinstance(spec, str) and isinstance(encoding_hash, str):
                        self._index[spec] = encoding_hash
        return self._index

    def lookup(self, spec_key: str) -> str | None:
        """Encoding hash bound to this spec identity, if its sidecar and
        snapshot image both read back."""
        encoding_hash = self._load_index().get(stable_hash(spec_key))
        if encoding_hash is None or self.meta(encoding_hash) is None:
            return None
        if encoding_hash not in self._snapshots and self._image(encoding_hash) is None:
            return None
        return encoding_hash

    def bind(self, spec_key: str, encoding_hash: str) -> None:
        """Bind a spec identity to its encoding: one appended, synced
        index line (nothing when the binding is already current)."""
        spec = stable_hash(spec_key)
        index = self._load_index()
        if index.get(spec) == encoding_hash:
            return
        index[spec] = encoding_hash
        if self.root is not None:
            fd = _open_log(self._index_path())
            try:
                _append(fd, {"spec": spec, "encoding": encoding_hash})
                os.fsync(fd)
            finally:
                os.close(fd)

    # -- snapshot payloads ----------------------------------------------
    def snapshot_path(self, encoding_hash: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{encoding_hash}.pkl"

    def store(self, snapshot, meta: dict) -> str:
        """Persist ``snapshot`` (+ JSON ``meta`` sidecar); returns its
        content hash.  Idempotent: same content, same files."""
        encoding_hash = snapshot.content_hash()
        self._snapshots[encoding_hash] = snapshot
        self._meta[encoding_hash] = meta
        path = self.snapshot_path(encoding_hash)
        if path is not None:
            image = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
            atomic_write_bytes(path, image)
            atomic_write_json(
                path.with_suffix(".meta.json"),
                {
                    "encoding_hash": encoding_hash,
                    "snapshot_sha": sha_bytes(image),
                    "meta": meta,
                },
            )
        return encoding_hash

    def _sidecar(self, encoding_hash: str) -> dict | None:
        """The sidecar on disk, if it parses and names this encoding."""
        path = self.snapshot_path(encoding_hash)
        if path is None:
            return None
        try:
            sidecar = json.loads(path.with_suffix(".meta.json").read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(sidecar, dict)
            or sidecar.get("encoding_hash") != encoding_hash
            or not isinstance(sidecar.get("meta"), dict)
        ):
            return None
        return sidecar

    def _image(self, encoding_hash: str) -> bytes | None:
        """The pickled snapshot on disk, if it is the image its sidecar
        names."""
        sidecar = self._sidecar(encoding_hash)
        if sidecar is None:
            return None
        try:
            image = self.snapshot_path(encoding_hash).read_bytes()
        except OSError:
            return None
        return image if sha_bytes(image) == sidecar.get("snapshot_sha") else None

    def load(self, encoding_hash: str):
        """The snapshot for ``encoding_hash``, or ``None`` if it is
        unknown or its image is not the one its sidecar names."""
        snapshot = self._snapshots.get(encoding_hash)
        if snapshot is None:
            image = self._image(encoding_hash)
            if image is None:
                return None
            try:
                snapshot = pickle.loads(image)
            except Exception:  # pickled against other class definitions
                return None
            self._snapshots[encoding_hash] = snapshot
        return snapshot

    def meta(self, encoding_hash: str) -> dict | None:
        """The ``meta`` stored with ``encoding_hash``'s snapshot, or
        ``None`` if it is unknown or its sidecar is unreadable."""
        meta = self._meta.get(encoding_hash)
        if meta is None:
            sidecar = self._sidecar(encoding_hash)
            if sidecar is None:
                return None
            meta = self._meta[encoding_hash] = sidecar["meta"]
        return meta


# ---------------------------------------------------------------------------
# Hot tier: live sessions under LRU eviction
# ---------------------------------------------------------------------------


class LruSessionCache:
    """Bounded mapping of live session objects, least-recently-used out.

    Eviction, replacement and :meth:`close_all` call each entry's
    idempotent ``close()``, so every session that leaves the cache
    releases its solver at once, however often specs churn through it.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.evictions = 0

    def get(self, key: str) -> Any | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: Any) -> None:
        if key in self._entries:
            previous = self._entries[key]
            self._entries.move_to_end(key)
            self._entries[key] = entry
            if previous is not entry:
                previous.close()
            return
        while len(self._entries) >= self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            evicted.close()
        self._entries[key] = entry

    def close_all(self) -> None:
        while self._entries:
            _, entry = self._entries.popitem(last=False)
            entry.close()

    def __len__(self) -> int:
        return len(self._entries)
