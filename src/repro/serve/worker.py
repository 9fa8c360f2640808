"""Simulation workers: pooled point execution behind the server.

Each worker (a process of the :class:`~concurrent.futures.
ProcessPoolExecutor`, or the single shared state of the thread
executor) owns one :class:`~repro.engine.snapshot.SnapshotPool`, and
all workers on a host share one file-backed
:class:`~repro.engine.snapshot.BlobStore` of serialized prefix
snapshots.  A request resolves its
:func:`~repro.harness.sweep.prefix_key` through that hierarchy: a warm
pool entry forks in-memory, a pool miss falls through to the shared
store (one ``pickle.loads`` away — a prefix built by *any* worker is
warm for all of them), and only a host-wide miss simulates the setup
prefix, publishes its blob for the other workers, and admits it
locally.  The measured body always runs **on a fork of the snapshot**
through :func:`~repro.harness.pipeline.simulate` — the one pipeline
behind :func:`~repro.harness.sweep.execute_group` and the cold
:func:`~repro.harness.sweep.execute_point`, which
``tests/test_snapshot_fork.py`` pins byte-identical to each other.
Points without a prefix key (No-UVM, fast mode) run unpooled.

Everything crossing the process boundary is a plain dict: the point in,
``{"outcome", "source", "pid", "pool", "blob_store"}`` out.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.engine.snapshot import BlobStore, SnapshotPool
from repro.errors import OutOfMemoryError

#: Default per-worker snapshot-pool budget (bytes).
DEFAULT_POOL_BYTES = 256 * 1024 * 1024

#: Default host-wide blob-store budget (bytes).
DEFAULT_BLOB_BYTES = BlobStore.DEFAULT_MAX_BYTES

#: The worker's warm pool; ``None`` until :func:`init_worker` runs (or
#: when pooling is disabled with a zero budget).
_POOL: Optional[SnapshotPool] = None

#: The host-shared blob store; ``None`` when cross-worker sharing is
#: off (no directory configured, or a zero budget).
_BLOB_STORE: Optional[BlobStore] = None


def init_worker(
    pool_bytes: int = DEFAULT_POOL_BYTES,
    blob_dir: Optional[str] = None,
    blob_bytes: int = DEFAULT_BLOB_BYTES,
) -> None:
    """Executor initializer: create this worker's snapshot machinery.

    ``pool_bytes <= 0`` disables the in-process pool; ``blob_dir=None``
    or ``blob_bytes <= 0`` disables the cross-worker blob store.  The
    process executor runs this once per worker process (every process
    gets its own pool but shares the one store directory); the thread
    executor calls it once in the server process, so all threads share
    one (thread-safe) pool.
    """
    global _POOL, _BLOB_STORE
    _POOL = SnapshotPool(pool_bytes) if pool_bytes > 0 else None
    _BLOB_STORE = (
        BlobStore(blob_dir, max_bytes=blob_bytes)
        if blob_dir and blob_bytes > 0
        else None
    )


def worker_pool() -> Optional[SnapshotPool]:
    """This worker's pool (test hook; ``None`` when pooling is off)."""
    return _POOL


def worker_blob_store() -> Optional[BlobStore]:
    """This worker's view of the shared store (test hook)."""
    return _BLOB_STORE


def run_point(point_dict: Dict[str, object]) -> Dict[str, object]:
    """Top-level (picklable) worker entry: simulate one point.

    Returns ``{"outcome": <outcome dict>, "source": "fork"|"blob"|
    "cold"|"unpooled", "pid": <worker pid>, "pool": <stats or None>,
    "blob_store": <stats or None>}``.
    """
    from repro.harness.sweep import SweepPoint

    point = SweepPoint.from_dict(point_dict)
    outcome, source = execute_point_pooled(point, _POOL, _BLOB_STORE)
    return {
        "outcome": outcome,
        "source": source,
        "pid": os.getpid(),
        "pool": _POOL.stats() if _POOL is not None else None,
        "blob_store": (
            _BLOB_STORE.stats() if _BLOB_STORE is not None else None
        ),
    }


def execute_point_pooled(
    point,
    pool: Optional[SnapshotPool],
    store: Optional[BlobStore] = None,
) -> Tuple[Dict[str, object], str]:
    """Simulate ``point``, forking from the warm hierarchy when possible.

    Returns ``(outcome_dict, source)`` where ``source`` is ``"fork"``
    (warm in-process pool hit), ``"blob"`` (forked a blob another
    worker published), ``"cold"`` (prefix simulated here, snapshot
    published/admitted for next time) or ``"unpooled"`` (no pool or
    store, or no prefix to share).  The outcome dict is exactly what the
    sweep cache stores, so served results compare byte-for-byte with
    ``repro run``.
    """
    from repro.engine.snapshot import resolve_prefix_snapshot
    from repro.harness.pipeline import build_prefix, plan_for, simulate
    from repro.harness.sweep import execute_point, outcome_to_dict, prefix_key

    warm = pool is not None or store is not None
    key = prefix_key(point) if warm else None
    if key is None:
        return outcome_to_dict(execute_point(point)), "unpooled"
    plan = plan_for(point)
    oom_sentinel = []

    def build():
        try:
            return build_prefix(plan)
        except OutOfMemoryError:
            oom_sentinel.append(True)
            return None

    snapshot, origin = resolve_prefix_snapshot(
        key, build, pool=pool, store=store
    )
    if snapshot is None:
        if oom_sentinel:
            return outcome_to_dict(None), "cold"
        # A non-quiescent prefix cannot be pooled; degrade to a cold
        # run (identical results, no reuse).
        return outcome_to_dict(execute_point(point)), "unpooled"
    source = {"pool": "fork", "blob": "blob", "built": "cold"}[origin]
    # Run the body on a fork (not the captured prefix itself) so cold,
    # blob and warm paths all execute the same protocol.
    result, _ = simulate(plan, snapshot)
    return outcome_to_dict(result), source
