"""Golden-trace regression tests.

Two small but representative sweep points — one micro-benchmark (FIR
under 2x oversubscription) and one DL training point (VGG-16) — are
simulated end to end and every number in their
:class:`~repro.harness.results.ExperimentResult` (headline metrics plus
the full counter dictionary) is compared against a snapshot checked in
under ``tests/golden/``.

The simulator is deterministic, so *any* drift in these numbers means a
behavioural change in the driver, the cost model or the workloads.  When
a change is intentional, regenerate the snapshots and commit them::

    PYTHONPATH=src python -m pytest tests/test_golden_trace.py --update-golden

On mismatch the failure lists each divergent key with its golden and
actual value, rather than dumping two opaque JSON blobs.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.harness.sweep import SweepPoint, execute_group, execute_point

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Snapshot name -> the sweep point it pins down.
GOLDEN_POINTS = {
    "fir_discard_200pct": SweepPoint(
        workload="fir", system="UvmDiscard", ratio=2.0, scale=0.01
    ),
    "dl_vgg16_discard_bs8": SweepPoint(
        workload="dl:vgg16", system="UvmDiscard", batch_size=8, scale=0.03125
    ),
    # One golden per UVMBench-style category (PR 9); lazy-discard for
    # the ping-pong workloads so §5.2's prefetch-paired path is pinned.
    "bfs_discard_200pct": SweepPoint(
        workload="bfs", system="UvmDiscard", ratio=2.0, scale=0.03125
    ),
    "kmeans_discard_200pct": SweepPoint(
        workload="kmeans", system="UvmDiscard", ratio=2.0, scale=0.03125
    ),
    "knn_discard_200pct": SweepPoint(
        workload="knn", system="UvmDiscard", ratio=2.0, scale=0.03125
    ),
    "stencil_discardlazy_200pct": SweepPoint(
        workload="stencil", system="UvmDiscardLazy", ratio=2.0, scale=0.03125
    ),
    "reduction_discardlazy_200pct": SweepPoint(
        workload="reduction", system="UvmDiscardLazy", ratio=2.0, scale=0.03125
    ),
}

#: The micro points above (tracing needs a UVM driver; the DL golden is
#: excluded only because its traced run is disproportionately slow).
TRACED_POINTS = sorted(name for name in GOLDEN_POINTS if "dl_" not in name)

#: ``Tracer.digest()`` of each cold traced run in :data:`TRACED_POINTS`.
TRACED_DIGESTS = GOLDEN_DIR / "traced_digests.json"


def _flatten(result_dict):
    """One flat {key: value} map: counters are inlined as counters.<k>."""
    flat = {}
    for key, value in sorted(result_dict.items()):
        if isinstance(value, dict):
            for sub, subvalue in sorted(value.items()):
                flat[f"{key}.{sub}"] = subvalue
        else:
            flat[key] = value
    return flat


def _diff(golden, actual):
    """Readable per-key drift report between two flattened snapshots."""
    lines = []
    for key in sorted(set(golden) | set(actual)):
        if key not in golden:
            lines.append(f"  {key}: (absent in golden) -> {actual[key]!r}")
        elif key not in actual:
            lines.append(f"  {key}: {golden[key]!r} -> (absent in result)")
        elif golden[key] != actual[key]:
            lines.append(f"  {key}: {golden[key]!r} -> {actual[key]!r}")
    return lines


@pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
def test_golden_trace(name, update_golden):
    point = GOLDEN_POINTS[name]
    result = execute_point(point)
    assert result is not None, f"{point.label} unexpectedly hit OOM"
    snapshot = {"point": point.to_dict(), "result": result.to_dict()}
    path = GOLDEN_DIR / f"{name}.json"

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {path}")

    assert path.exists(), (
        f"missing golden snapshot {path}; generate it with "
        "'python -m pytest tests/test_golden_trace.py --update-golden'"
    )
    golden = json.loads(path.read_text())
    assert golden["point"] == snapshot["point"], (
        f"{name}: the pinned sweep point itself changed; regenerate the "
        "snapshot with --update-golden if intentional"
    )
    drift = _diff(_flatten(golden["result"]), _flatten(snapshot["result"]))
    assert not drift, (
        f"{name}: simulation drifted from tests/golden/{name}.json "
        "(golden -> actual); if the change is intentional, rerun with "
        "--update-golden and commit the new snapshot:\n" + "\n".join(drift)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
def test_golden_trace_invariant_to_snapshot_forking(name):
    """Shared-prefix snapshot forking is a pure wall-clock optimization.

    Each golden point is run as part of a prefix-sharing group (with a
    sibling under another system, so the snapshot/fork path actually
    engages) and must still reproduce its committed snapshot
    bit-for-bit.  There is no --update-golden escape hatch: a
    divergence means the forked continuation is not equivalent to a
    cold run.
    """
    point = GOLDEN_POINTS[name]
    sibling = dataclasses.replace(point, system="UVM-opt")
    assert sibling.system != point.system
    result = execute_group([point, sibling])[0]
    assert result is not None, f"{point.label} unexpectedly hit OOM"
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden snapshot {path}"
    golden = json.loads(path.read_text())
    drift = _diff(_flatten(golden["result"]), _flatten(result.to_dict()))
    assert not drift, (
        f"{name}: snapshot-forked run diverges from the committed "
        "snapshot (golden -> actual):\n" + "\n".join(drift)
    )


@pytest.mark.parametrize("name", TRACED_POINTS)
def test_trace_digest_identity(name, update_golden):
    """Cold, repeated and snapshot-forked traced runs are byte-identical.

    Every golden micro point is traced three ways — cold, cold again
    (determinism), and with the measured body on a snapshot fork of the
    setup prefix — and all three must produce the same ``trace_digest``.
    There is no --update-golden escape hatch for that three-way check:
    a divergence always means the fork/repeat path changed simulation
    behaviour.

    The cold digest must also equal the one committed in
    ``tests/golden/traced_digests.json``, which pins every traced span
    (evictions, discards, DMA commands, program records) across
    versions; ``--update-golden`` rewrites that entry for an intended
    change.
    """
    from repro.engine.snapshot import EngineSnapshot
    from repro.harness.pipeline import build_prefix, plan_for, simulate
    from repro.harness.tracerun import trace_point
    from repro.instrument.trace import TraceConfig, Tracer

    point = GOLDEN_POINTS[name]
    result_cold, cold = trace_point(point)
    assert result_cold is not None, f"{point.label} unexpectedly hit OOM"
    _, repeat = trace_point(point)
    plan = plan_for(point)
    forked = Tracer(TraceConfig())
    simulate(plan, EngineSnapshot(build_prefix(plan)), forked)
    assert cold.digest() == repeat.digest(), (
        f"{name}: repeated traced run produced a different trace_digest"
    )
    assert cold.digest() == forked.digest(), (
        f"{name}: snapshot-forked traced run produced a different "
        "trace_digest"
    )
    committed = (
        json.loads(TRACED_DIGESTS.read_text()) if TRACED_DIGESTS.exists() else {}
    )
    if update_golden:
        committed[name] = cold.digest()
        TRACED_DIGESTS.write_text(
            json.dumps(committed, indent=2, sort_keys=True) + "\n"
        )
    assert committed.get(name) == cold.digest(), (
        f"{name}: traced run drifted from tests/golden/traced_digests.json; "
        "if the change is intentional, rerun with --update-golden and "
        "commit the new digest"
    )
