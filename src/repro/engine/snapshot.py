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
import sys
import threading
import time
from collections import OrderedDict
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
        """Exact size of the frozen payload blob, in bytes.

        Used by :class:`SnapshotPool` and :class:`BlobStore` byte
        accounting.  Serialize-once makes this free: the blob already
        exists, so no estimation walk is needed.
        """
        return len(self._blob)


def estimate_nbytes(obj: object) -> int:
    """Best-effort deep size of ``obj`` in bytes.

    ``pickle`` length when the graph pickles (a quiescent simulation
    does: finished processes shed their generators), else a recursive
    ``sys.getsizeof`` traversal over ``__dict__``/containers.
    """
    try:
        return len(pickle.dumps(obj, protocol=PICKLE_PROTOCOL))
    except Exception:
        return _getsizeof_walk(obj)


def _getsizeof_walk(root: object) -> int:
    seen = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(obj.__dict__)
        elif hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


class _PoolEntry:
    __slots__ = ("snapshot", "nbytes", "forks")

    def __init__(self, snapshot: EngineSnapshot, nbytes: int) -> None:
        self.snapshot = snapshot
        self.nbytes = nbytes
        self.forks = 0


class _BuildClaim:
    """Single-flight token: first thread to miss on a key owns the build."""

    __slots__ = ("event", "owner")

    def __init__(self, owner: int) -> None:
        self.event = threading.Event()
        self.owner = owner


class SnapshotPool:
    """An LRU-bounded, byte-budgeted registry of warm snapshots.

    The experiment server keeps one pool per worker: popular setup
    prefixes (keyed by :func:`repro.harness.sweep.prefix_key`) are
    snapshotted once and then *forked* per request instead of
    cold-starting the whole simulation.  The pool enforces three
    invariants, pinned by ``tests/test_serve_pool_property.py``:

    - the summed ``nbytes`` of admitted entries never exceeds
      ``max_bytes`` (least-recently-used entries are evicted to make
      room; an entry larger than the whole budget is refused),
    - a non-quiescent simulation is never admitted — admission takes an
      :class:`EngineSnapshot`, whose constructor raises
      :class:`~repro.errors.SnapshotError` on live process frames, and
      :meth:`admit` turns that into a counted refusal,
    - eviction is transparent: a missing prefix simply cold-starts, and
      (because forked runs are byte-identical to cold ones) the served
      result is unchanged.

    Misses are **single-flight** per key: the first thread to miss owns
    the build, and concurrent threads missing on the same key block
    until the owner :meth:`admit`\\ s (or :meth:`release`\\ s) the key
    instead of all rebuilding the same prefix.  Two escape hatches keep
    this deadlock-free: the owning thread re-missing on its own key is
    handed the miss again (it is mid-build; making it wait on itself
    would hang — this also preserves the historical ``fork()`` contract
    for single-threaded callers that never admit), and a waiter whose
    builder exceeds ``build_wait_seconds`` steals the build rather than
    stall forever behind a wedged worker.

    All methods are thread-safe; the server's thread executor shares
    one pool, the process executor keeps one per worker process.
    """

    #: How long a waiter trusts another thread's in-flight build before
    #: stealing it.  Prefix builds are milliseconds; a minute means a
    #: genuinely wedged builder, not a slow one.
    BUILD_WAIT_SECONDS = 60.0

    def __init__(
        self, max_bytes: int, build_wait_seconds: Optional[float] = None
    ) -> None:
        if max_bytes < 0:
            raise ValueError(f"pool budget must be >= 0 bytes, got {max_bytes}")
        self.max_bytes = max_bytes
        self.build_wait_seconds = (
            self.BUILD_WAIT_SECONDS
            if build_wait_seconds is None
            else build_wait_seconds
        )
        self._entries: "OrderedDict[Tuple, _PoolEntry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._building: Dict[Tuple, _BuildClaim] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.steals = 0
        self.admitted = 0
        self.evicted = 0
        self.rejected_live = 0
        self.rejected_oversize = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def admit(
        self,
        key: Tuple,
        root: object,
        nbytes: Optional[int] = None,
    ) -> bool:
        """Snapshot ``root`` (or accept a prebuilt snapshot) under ``key``.

        Returns ``False`` — never raises — when the simulation is not
        quiescent (``rejected_live``) or larger than the entire budget
        (``rejected_oversize``).  Admitting an existing key replaces the
        old entry.  Evicts least-recently-used entries until the budget
        holds.  Always resolves this key's single-flight claim, so
        threads parked in :meth:`lookup` wake up whether admission
        succeeded or was refused.
        """
        try:
            if isinstance(root, EngineSnapshot):
                snapshot = root
            else:
                try:
                    snapshot = EngineSnapshot(root)
                except SnapshotError:
                    with self._lock:
                        self.rejected_live += 1
                    return False
            if nbytes is None:
                nbytes = snapshot.payload_nbytes()
            if nbytes < 0:
                raise ValueError(f"snapshot nbytes must be >= 0, got {nbytes}")
            with self._lock:
                if nbytes > self.max_bytes:
                    self.rejected_oversize += 1
                    return False
                old = self._entries.pop(key, None)
                if old is not None:
                    self._bytes -= old.nbytes
                self._entries[key] = _PoolEntry(snapshot, nbytes)
                self._bytes += nbytes
                while self._bytes > self.max_bytes:
                    _, evicted = self._entries.popitem(last=False)
                    self._bytes -= evicted.nbytes
                    self.evicted += 1
                self.admitted += 1
            return True
        finally:
            self.release(key)

    def lookup(self, key: Tuple) -> Optional[EngineSnapshot]:
        """The warm snapshot for ``key``, or ``None`` with a build claim.

        A ``None`` return means *this caller* owns the (single-flight)
        build for ``key``: it should construct the prefix and then call
        :meth:`admit` — or :meth:`release` on failure — so waiters
        parked here wake up.  Concurrent callers missing on the same
        key block until then and re-check the pool.
        """
        me = threading.get_ident()
        deadline: Optional[float] = None
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry.forks += 1
                    self.hits += 1
                    return entry.snapshot
                claim = self._building.get(key)
                if claim is None or claim.owner == me:
                    if claim is None:
                        self._building[key] = _BuildClaim(me)
                    self.misses += 1
                    return None
                self.coalesced += 1
            if deadline is None:
                deadline = time.monotonic() + self.build_wait_seconds
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not claim.event.wait(remaining):
                # The builder is wedged: steal the build instead of
                # stalling every same-prefix request behind it.
                with self._lock:
                    if self._building.get(key) is claim:
                        self._building[key] = _BuildClaim(me)
                    self.steals += 1
                    self.misses += 1
                return None

    def release(self, key: Tuple) -> None:
        """Resolve ``key``'s single-flight claim without admitting.

        Called by a claim owner whose build failed (OOM, non-quiescent
        root); waiting threads wake and the next one takes the claim.
        A no-op when no claim is outstanding.
        """
        with self._lock:
            claim = self._building.pop(key, None)
        if claim is not None:
            claim.event.set()

    def fork(self, key: Tuple):
        """A fresh runtime forked from the warm snapshot for ``key``, or
        ``None`` on a pool miss (the caller cold-starts — and owns the
        single-flight build claim, resolved by its ``admit``/``release``).
        """
        snapshot = self.lookup(key)
        if snapshot is None:
            return None
        # Fork outside the lock: the deserialization is the expensive
        # part and EngineSnapshot.fork never mutates the frozen blob.
        return snapshot.fork()

    def evict(self, key: Tuple) -> bool:
        """Explicitly drop one entry; ``True`` when it existed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry.nbytes
            self.evicted += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self.evicted += len(self._entries)
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, object]:
        """A JSON-able stats snapshot for ``/metrics``."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "coalesced": self.coalesced,
                "steals": self.steals,
                "admitted": self.admitted,
                "evicted": self.evicted,
                "rejected_live": self.rejected_live,
                "rejected_oversize": self.rejected_oversize,
            }


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
    and :func:`source_fingerprint` (see :meth:`key_id`).  Sweep pool
    workers and serve process workers share the directory, so each
    popular prefix is *built once per host* and every other worker
    forks from the published blob instead of re-running setup.

    Like :class:`SnapshotPool` it is byte-budgeted with LRU eviction
    (recency = blob file mtime, refreshed on every hit) and refuses
    oversize blobs.  Builds are single-flight *across processes*: the
    first worker to miss atomically creates ``<id>.lock``
    (``O_CREAT | O_EXCL``) and owns the build; others poll until the
    blob appears, the lock goes stale (owner died — the waiter breaks
    it and steals the build), or ``wait_seconds`` expires (the waiter
    falls back to a private local build so one wedged worker cannot
    stall the fleet).  ``builds.log`` records one line per published
    build (append-only, ``O_APPEND`` so concurrent writers never
    interleave), which is exactly the "each prefix built once per
    host" counter CI asserts on.

    Publication is atomic (``os.replace`` of a same-directory temp
    file), so readers only ever observe absent or complete blobs.
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
        # Per-instance (= per-process) counters; the on-disk state
        # (entries, bytes, builds.log) is the cross-process truth.
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.evicted = 0
        self.rejected_oversize = 0
        self.lock_waits = 0
        self.lock_steals = 0
        self.wait_timeouts = 0

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
            self.misses += 1
        else:
            self.hits += 1
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
                self.hits += 1
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
                self.misses += 1
                return None, BlobClaim(self, key, kid)
            # Another process is building this prefix: wait for the
            # blob, break stale locks, and eventually give up and
            # build privately.
            if not waited:
                waited = True
                self.lock_waits += 1
                deadline = time.monotonic() + self.wait_seconds
            try:
                age = time.time() - lock_path.stat().st_mtime
            except OSError:
                continue  # lock vanished between open() and stat()
            if age > self.stale_lock_seconds:
                self._drop_lock(kid)
                self.lock_steals += 1
                continue
            if deadline is not None and time.monotonic() > deadline:
                self.misses += 1
                self.wait_timeouts += 1
                return None, None
            time.sleep(self.poll_seconds)

    def _publish(self, kid: str, blob: bytes) -> bool:
        try:
            if len(blob) > self.max_bytes:
                self.rejected_oversize += 1
                return False
            blob_path = self._blob_path(kid)
            tmp_path = blob_path.with_suffix(f".tmp.{os.getpid()}")
            tmp_path.write_bytes(blob)
            os.replace(tmp_path, blob_path)
            self.published += 1
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
            self.evicted += 1

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
    pool: Optional[SnapshotPool] = None,
    store: Optional[BlobStore] = None,
) -> Tuple[Optional[EngineSnapshot], Optional[str]]:
    """Resolve the warm snapshot for ``key`` through the shared hierarchy.

    Lookup order: per-process :class:`SnapshotPool` (zero-copy hit),
    then the host-wide :class:`BlobStore` (one ``pickle.loads`` away),
    then ``build()`` — a callable returning the quiesced prefix
    runtime, or ``None`` when the prefix itself fails (e.g. setup OOM).
    Both layers are single-flight: concurrent same-key callers block on
    the pool claim, concurrent same-key *processes* block on the store
    lock, so each prefix is built once per host.

    Returns ``(snapshot, origin)`` with origin ``"pool"`` / ``"blob"``
    / ``"built"``, or ``(None, None)`` when ``build()`` declined or the
    built runtime was not quiescent.  All claims are resolved on every
    path, including exceptions.
    """
    if pool is not None:
        snapshot = pool.lookup(key)
        if snapshot is not None:
            return snapshot, "pool"
    # A pool miss leaves this caller holding the pool's build claim;
    # release it on every failure path so waiters are not stranded.
    claim: Optional[BlobClaim] = None
    try:
        blob: Optional[bytes] = None
        if store is not None:
            blob, claim = store.fetch_or_claim(key)
        if blob is not None:
            snapshot = EngineSnapshot.from_blob(blob)
            origin = "blob"
        else:
            root = build()
            if root is None:
                if claim is not None:
                    claim.abandon()
                    claim = None
                if pool is not None:
                    pool.release(key)
                return None, None
            try:
                snapshot = EngineSnapshot(root)
            except SnapshotError:
                if claim is not None:
                    claim.abandon()
                    claim = None
                if pool is not None:
                    pool.release(key)
                return None, None
            if claim is not None:
                claim.publish(snapshot.to_blob())
                claim = None
            origin = "built"
        if pool is not None:
            # admit() resolves the pool claim (success or refusal).
            pool.admit(key, snapshot, nbytes=snapshot.payload_nbytes())
        return snapshot, origin
    except BaseException:
        if claim is not None:
            claim.abandon()
        if pool is not None:
            pool.release(key)
        raise
