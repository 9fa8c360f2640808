"""Simulation workers: point execution behind the server.

All workers of one server share a file-backed
:class:`~repro.engine.snapshot.BlobStore` of serialized prefix
snapshots: process workers open the same directory, thread workers
share one instance.  A request resolves its
:func:`~repro.harness.sweep.prefix_key` through that store: a published
blob forks (one ``pickle.loads`` away — a prefix built by *any* worker
is warm for all of them), and only a host-wide miss simulates the setup
prefix and publishes its blob for the other workers.  The measured body
always runs **on a fork of the snapshot** through
:func:`~repro.harness.pipeline.simulate` — the one pipeline behind
:func:`~repro.harness.sweep.execute_group` and the cold
:func:`~repro.harness.sweep.execute_point`, which
``tests/test_snapshot_fork.py`` pins byte-identical to each other.
Points without a prefix key (No-UVM, fast mode) run unpooled.

Everything crossing the process boundary is a plain dict: the point in,
``{"outcome", "source", "pid", "blob_store"}`` out.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.engine.snapshot import BlobStore
from repro.errors import OutOfMemoryError

#: The shared blob store; ``None`` until :func:`init_worker` names a
#: directory (every point then runs unpooled).
_BLOB_STORE: Optional[BlobStore] = None


def init_worker(blob_dir: Optional[str] = None) -> None:
    """Executor initializer: open the shared blob store in ``blob_dir``.

    The process executor runs this once per worker process (every
    process opens the one store directory); the thread executor calls
    it once in the server process, so all threads share one store.
    """
    global _BLOB_STORE
    _BLOB_STORE = BlobStore(blob_dir) if blob_dir else None


def run_point(point_dict: Dict[str, object]) -> Dict[str, object]:
    """Top-level (picklable) worker entry: simulate one point.

    Returns ``{"outcome": <outcome dict>, "source": "blob"|"cold"|
    "unpooled", "pid": <worker pid>, "blob_store": <stats or None>}``.
    """
    from repro.harness.sweep import SweepPoint

    point = SweepPoint.from_dict(point_dict)
    outcome, source = execute_point_pooled(point, _BLOB_STORE)
    return {
        "outcome": outcome,
        "source": source,
        "pid": os.getpid(),
        "blob_store": (
            _BLOB_STORE.stats() if _BLOB_STORE is not None else None
        ),
    }


def execute_point_pooled(
    point, store: Optional[BlobStore]
) -> Tuple[Dict[str, object], str]:
    """Simulate ``point``, forking from the shared store when possible.

    Returns ``(outcome_dict, source)`` where ``source`` is ``"blob"``
    (forked a published blob), ``"cold"`` (prefix simulated here, blob
    published for next time) or ``"unpooled"`` (no store, or no prefix
    to share).  The outcome dict is exactly what the sweep cache stores,
    so served results compare byte-for-byte with ``repro run``.
    """
    from repro.engine.snapshot import resolve_prefix_snapshot
    from repro.harness.pipeline import build_prefix, plan_for, simulate
    from repro.harness.sweep import execute_point, outcome_to_dict, prefix_key

    key = prefix_key(point) if store is not None else None
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

    snapshot, origin = resolve_prefix_snapshot(key, build, store)
    if snapshot is None:
        if oom_sentinel:
            return outcome_to_dict(None), "cold"
        # A non-quiescent prefix cannot be shared; degrade to a cold
        # run (identical results, no reuse).
        return outcome_to_dict(execute_point(point)), "unpooled"
    # Run the body on a fork (not the captured prefix itself) so the
    # cold and blob paths execute the same protocol.
    result, _ = simulate(plan, snapshot)
    return outcome_to_dict(result), "blob" if origin == "blob" else "cold"
