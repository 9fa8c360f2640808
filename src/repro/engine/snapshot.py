"""Deterministic snapshot/fork of a quiescent simulation.

A snapshot captures an entire simulation object graph — typically a
:class:`~repro.cuda.runtime.CudaRuntime`, i.e. the
:class:`~repro.engine.core.Environment` (clock, recycled-timeout pool),
the driver (va_blocks, page queues, frame allocators, in-flight locks),
the instruments (traffic, RMT, counters) and the GPU
executors — by pickling it **exactly once** into an immutable blob.
:meth:`EngineSnapshot.fork` is then a single ``pickle.loads`` of that
blob, yielding an independent restored simulation that continues
*bit-for-bit* like the original would have.  The blob is also a
portable artifact: it can cross process boundaries through the
file-backed :class:`BlobStore`, so a popular setup prefix is built once
per *host* instead of once per worker.

The one restriction is **quiescence**: Python generator frames (live
processes) cannot be copied or pickled, so a snapshot may only be taken
when the event heap is empty and every process has finished.  The sweep
harness arranges exactly that by splitting workloads into a CPU-only
setup prefix and a measured body (see :mod:`repro.harness.pipeline`); the
boundary between them is quiescent by construction because host-side
setup is fully synchronous.

Three details make the restored copy exact:

- ``Process.__getstate__`` keeps a finished process's outcome (streams
  hold their tail processes forever) while shedding the exhausted
  generator — and raises :class:`~repro.errors.SnapshotError` if a
  *live* process sneaks into the graph, so a non-quiescent snapshot
  fails loudly instead of corrupting silently.
- the engine's ``_PENDING`` sentinel preserves identity across
  pickling (``_PendingType.__reduce__`` restores the module
  singleton), so ``is``-based "value not set" checks keep working in
  the fork.
- ``NULL_TRACER`` likewise unpickles to the module singleton, so
  untraced runs stay on the zero-cost no-op path after a fork.

Forked runs are indistinguishable from cold runs in every *observable*:
simulated times, traffic bytes, RMT classification, counters.  The only
divergent internals are event sequence numbers (the fork's counter
continues from the prefix, a cold run's counts setup bootstrap events
too) and the identity of recycled timeout objects —
both are tie-breakers/allocation details with no behavioural effect
when the heap is empty at the boundary, which tests pin down
(``tests/test_snapshot_fork.py``, ``tests/test_snapshot_blob.py``).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar, Union

from repro.errors import SnapshotError

T = TypeVar("T")

PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def assert_quiescent(root: object) -> None:
    """Raise :class:`SnapshotError` unless ``root`` can be snapshotted.

    Duck-typed: if ``root`` exposes a ``snapshot_precheck()`` hook (the
    runtime, the driver), it is invoked; otherwise an ``env`` attribute
    with an empty heap is required.
    """
    precheck = getattr(root, "snapshot_precheck", None)
    if precheck is not None:
        precheck()
        return
    env = getattr(root, "env", root)
    quiescent = getattr(env, "quiescent", None)
    if quiescent is None:
        raise SnapshotError(
            f"{type(root).__name__} exposes neither snapshot_precheck() "
            "nor an environment to check for quiescence"
        )
    if not quiescent:
        raise SnapshotError(
            "snapshot requested with events still on the heap; run the "
            "simulation to quiescence first"
        )


class EngineSnapshot(Generic[T]):
    """A quiescent simulation graph frozen into one pickle blob.

    The constructor serializes ``root`` exactly once (after
    :func:`assert_quiescent`); :meth:`fork` deserializes a fresh, fully
    independent restored copy each time it is called.  The blob itself
    is immutable ``bytes``, so a snapshot can seed any number of
    divergent continuations — and :meth:`to_blob`/:meth:`from_blob`
    move it across process boundaries without rebuilding the prefix.

    A live (non-quiescent) graph fails the precheck; a graph that
    passes the precheck but still holds an unpicklable object surfaces
    the underlying error as :class:`SnapshotError` so callers can count
    it as a refusal rather than crash.
    """

    def __init__(self, root: T) -> None:
        assert_quiescent(root)
        try:
            self._blob: bytes = pickle.dumps(root, protocol=PICKLE_PROTOCOL)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"quiescent graph failed to serialize: {exc!r}"
            ) from exc

    @classmethod
    def from_blob(cls, blob: bytes) -> "EngineSnapshot[T]":
        """Wrap a blob produced by :meth:`to_blob` (no re-serialization)."""
        snapshot = cls.__new__(cls)
        snapshot._blob = bytes(blob)
        return snapshot

    def to_blob(self) -> bytes:
        """The serialized payload — portable across processes."""
        return self._blob

    def fork(self) -> T:
        """An independent restored copy of the captured simulation."""
        return pickle.loads(self._blob)

    def payload_nbytes(self) -> int:
        """Exact size of the frozen payload blob, in bytes."""
        return len(self._blob)


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """sha256 over every ``repro/**/*.py`` file (relative path and bytes).

    Computed once per process.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


class BlobClaim:
    """A cross-process single-flight build token from
    :meth:`BlobStore.fetch_or_claim`.

    Exactly one of :meth:`publish` / :meth:`abandon` must be called;
    both drop the on-disk lock so waiting processes proceed.
    """

    __slots__ = ("_store", "_key", "_kid", "_done")

    def __init__(self, store: "BlobStore", key: Tuple, kid: str) -> None:
        self._store = store
        self._key = key
        self._kid = kid
        self._done = False

    def publish(self, blob: bytes) -> bool:
        """Write the built blob for every process on this host to fork.

        Returns ``False`` (refused, counted) when the blob exceeds the
        whole store budget.  Releases the build lock either way.
        """
        if self._done:  # pragma: no cover - double release guard
            return False
        self._done = True
        return self._store._publish(self._kid, blob)

    def abandon(self) -> None:
        """Drop the build lock without publishing (build failed)."""
        if self._done:  # pragma: no cover - double release guard
            return
        self._done = True
        self._store._drop_lock(self._kid)


class BlobStore:
    """A cross-process, file-backed store of snapshot blobs.

    One directory per host (or per sweep) holds serialized prefix
    snapshots, content-addressed by :func:`repro.harness.sweep.prefix_key`
    and :func:`source_fingerprint` (see :meth:`key_id`).  Sweep workers
    and serve workers share the directory, so each popular prefix is
    *built once per host* and every other worker forks from the
    published blob instead of re-running setup.

    It is byte-budgeted with LRU eviction (recency = blob file mtime,
    refreshed on every hit) and refuses oversize blobs.  Builds are
    single-flight across processes *and threads*: the first worker to
    miss atomically creates ``<id>.lock`` (``O_CREAT | O_EXCL``) and
    owns the build; others poll until the
    blob appears, the lock goes stale (owner died — the waiter breaks
    it and steals the build), or ``wait_seconds`` expires (the waiter
    falls back to a private local build so one wedged worker cannot
    stall the fleet).  ``builds.log`` records one line per published
    build (append-only, ``O_APPEND`` so concurrent writers never
    interleave), which is exactly the "each prefix built once per
    host" counter CI asserts on.

    Publication is atomic (``os.replace`` of a same-directory temp
    file), so readers only ever observe absent or complete blobs.  One
    instance may be shared by threads: its counters update under a lock.
    """

    DEFAULT_MAX_BYTES = 512 * 1024 * 1024

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
        wait_seconds: float = 60.0,
        poll_seconds: float = 0.002,
        stale_lock_seconds: float = 300.0,
    ) -> None:
        if max_bytes < 0:
            raise ValueError(f"store budget must be >= 0 bytes, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.wait_seconds = wait_seconds
        self.poll_seconds = poll_seconds
        self.stale_lock_seconds = stale_lock_seconds
        # Per-instance counters; the on-disk state (entries, bytes,
        # builds.log) is the cross-process truth.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.evicted = 0
        self.rejected_oversize = 0
        self.lock_waits = 0
        self.lock_steals = 0
        self.wait_timeouts = 0

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @staticmethod
    def key_id(key: Tuple) -> str:
        """Content address for a prefix key under this source tree.

        The fingerprint makes a blob pickled by other code a miss, so a
        store never unpickles an object graph into classes that changed.
        """
        payload = f"{source_fingerprint()}\x00{key!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _blob_path(self, kid: str) -> Path:
        return self.root / f"{kid}.blob"

    def _lock_path(self, kid: str) -> Path:
        return self.root / f"{kid}.lock"

    @property
    def _log_path(self) -> Path:
        return self.root / "builds.log"

    def get(self, key: Tuple) -> Optional[bytes]:
        """The published blob for ``key``, or ``None`` (no claim taken)."""
        path = self._blob_path(self.key_id(key))
        blob = self._read(path)
        if blob is None:
            self._count("misses")
        else:
            self._count("hits")
            self._touch(path)  # a read is a use: keep LRU eviction honest
        return blob

    def fetch_or_claim(
        self, key: Tuple
    ) -> Tuple[Optional[bytes], Optional[BlobClaim]]:
        """Fetch ``key``'s blob, or claim the single-flight build for it.

        Returns one of:

        - ``(blob, None)`` — published blob found (possibly after
          waiting out another process's in-flight build),
        - ``(None, claim)`` — this process owns the build; it must
          ``claim.publish(blob)`` or ``claim.abandon()``,
        - ``(None, None)`` — another process holds the lock past
          ``wait_seconds``; the caller should build privately without
          publishing (availability over dedup).
        """
        kid = self.key_id(key)
        blob_path = self._blob_path(kid)
        lock_path = self._lock_path(kid)
        deadline: Optional[float] = None
        waited = False
        while True:
            blob = self._read(blob_path)
            if blob is not None:
                self._count("hits")
                self._touch(blob_path)
                return blob, None
            try:
                fd = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                pass
            else:
                with os.fdopen(fd, "w") as handle:
                    handle.write(f"{os.getpid()}\n")
                self._count("misses")
                return None, BlobClaim(self, key, kid)
            # Another process is building this prefix: wait for the
            # blob, break stale locks, and eventually give up and
            # build privately.
            if not waited:
                waited = True
                self._count("lock_waits")
                deadline = time.monotonic() + self.wait_seconds
            try:
                age = time.time() - lock_path.stat().st_mtime
            except OSError:
                continue  # lock vanished between open() and stat()
            if age > self.stale_lock_seconds:
                self._drop_lock(kid)
                self._count("lock_steals")
                continue
            if deadline is not None and time.monotonic() > deadline:
                self._count("misses")
                self._count("wait_timeouts")
                return None, None
            time.sleep(self.poll_seconds)

    def _publish(self, kid: str, blob: bytes) -> bool:
        try:
            if len(blob) > self.max_bytes:
                self._count("rejected_oversize")
                return False
            blob_path = self._blob_path(kid)
            tmp_path = blob_path.with_suffix(f".tmp.{os.getpid()}")
            tmp_path.write_bytes(blob)
            os.replace(tmp_path, blob_path)
            self._count("published")
            self._log_build(kid, len(blob))
            self._evict_over_budget(keep=kid)
            return True
        finally:
            self._drop_lock(kid)

    def _log_build(self, kid: str, nbytes: int) -> None:
        line = f"{kid} pid={os.getpid()} bytes={nbytes}\n".encode("ascii")
        fd = os.open(
            self._log_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def _drop_lock(self, kid: str) -> None:
        try:
            os.unlink(self._lock_path(kid))
        except OSError:
            pass

    def _read(self, path: Path) -> Optional[bytes]:
        try:
            return path.read_bytes()
        except OSError:
            return None

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - concurrent eviction
            pass

    def _entries_by_age(self):
        entries = []
        for path in self.root.glob("*.blob"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def _evict_over_budget(self, keep: Optional[str] = None) -> None:
        entries = self._entries_by_age()
        total = sum(size for _, size, _ in entries)
        keep_path = self._blob_path(keep) if keep else None
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep_path is not None and path == keep_path:
                continue
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            total -= size
            self._count("evicted")

    def build_counts(self) -> Dict[str, int]:
        """Published builds per key id, parsed from ``builds.log``.

        The host-wide single-flight invariant is that every value here
        is 1 (modulo post-eviction rebuilds); CI asserts exactly that.
        """
        counts: Dict[str, int] = {}
        try:
            text = self._log_path.read_text()
        except OSError:
            return counts
        for line in text.splitlines():
            kid = line.split(" ", 1)[0]
            if kid:
                counts[kid] = counts.get(kid, 0) + 1
        return counts

    def stats(self) -> Dict[str, object]:
        """A JSON-able stats snapshot for ``/metrics``.

        Mixes per-process counters (hits/misses/...) with on-disk,
        host-wide truth (entries, bytes, total/distinct builds).
        """
        entries = self._entries_by_age()
        counts = self.build_counts()
        lookups = self.hits + self.misses
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "published": self.published,
            "evicted": self.evicted,
            "rejected_oversize": self.rejected_oversize,
            "lock_waits": self.lock_waits,
            "lock_steals": self.lock_steals,
            "wait_timeouts": self.wait_timeouts,
            "builds_total": sum(counts.values()),
            "builds_distinct": len(counts),
        }


def resolve_prefix_snapshot(
    key: Tuple,
    build: Callable[[], Optional[object]],
    store: Optional[BlobStore] = None,
) -> Tuple[Optional[EngineSnapshot], Optional[str]]:
    """Resolve the warm snapshot for ``key`` through the shared store.

    Lookup order: the host-wide :class:`BlobStore` (one ``pickle.loads``
    away), then ``build()`` — a callable returning the quiesced prefix
    runtime, or ``None`` when the prefix itself fails (e.g. setup OOM).
    The store is single-flight: concurrent same-key callers, threads or
    processes, block on its lock file, so each prefix is built once per
    host.

    Returns ``(snapshot, origin)`` with origin ``"blob"`` / ``"built"``,
    or ``(None, None)`` when ``build()`` declined or the built runtime was
    not quiescent.  The store's build claim is resolved on every path,
    including exceptions.
    """
    blob, claim = (None, None) if store is None else store.fetch_or_claim(key)
    if blob is not None:
        return EngineSnapshot.from_blob(blob), "blob"
    try:
        root = build()
        if root is None:
            return None, None
        try:
            snapshot = EngineSnapshot(root)
        except SnapshotError:
            return None, None
        if claim is not None:
            claim.publish(snapshot.to_blob())
            claim = None
        return snapshot, "built"
    finally:
        if claim is not None:
            claim.abandon()
