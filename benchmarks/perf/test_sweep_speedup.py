"""Wall-clock speedup of a multi-job sweep, ``pytest benchmarks/perf``.

Unlike the paper benchmarks in ``benchmarks/``, this measures the
simulator's own wall time, so it is opt-in via ``REPRO_PERF_STRICT=1``
(the CI perf-smoke job) and needs a second core: laptops under load
would flake.  The simulator's end-to-end speed against a base revision
is gated by ``benchmarks/e2e/compare.py`` (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.harness.sweep import SweepPoint, run_sweep

STRICT = pytest.mark.skipif(
    os.environ.get("REPRO_PERF_STRICT") != "1",
    reason="wall-clock gate is CI-only (REPRO_PERF_STRICT=1)",
)


@STRICT
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core")
def test_fig5_subgrid_parallel_speedup():
    """``--jobs 4`` must beat ``--jobs 1`` on wall clock over >= 12
    Fig. 5 DL points (identity and caching of the same sweep are
    checked in tier-1 by ``tests/test_sweep.py``)."""
    points = [
        SweepPoint(workload="dl:vgg16", system=system, batch_size=batch)
        for batch in (50, 75, 100, 125)
        for system in ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
    ]
    started = time.monotonic()
    serial = run_sweep(points, jobs=1)
    serial_seconds = time.monotonic() - started
    started = time.monotonic()
    parallel = run_sweep(points, jobs=4)
    parallel_seconds = time.monotonic() - started
    assert parallel.to_json() == serial.to_json()
    # Loose: half the ideal 4x, and only demanded when cores exist.
    assert parallel_seconds < serial_seconds * 0.9, (
        f"jobs=4 took {parallel_seconds:.2f}s vs "
        f"jobs=1 {serial_seconds:.2f}s"
    )
