"""Simulator-kernel perf suite, runnable as ``pytest benchmarks/perf``.

Unlike the paper benchmarks in ``benchmarks/``, these measure the
simulator's own wall time.  Two layers of assertions:

- **Determinism** (always on): the non-wall metrics — simulated event
  counts, traffic bytes — must match the committed baseline exactly.
  An optimization that changes them changed simulation behaviour, not
  just speed.
- **Wall time** (opt-in via ``REPRO_PERF_STRICT=1``, used by the CI
  perf-smoke job): each benchmark must finish within
  ``DEFAULT_MAX_REGRESSION`` (2x) of the committed baseline, and a
  multi-job sweep must beat a serial one.  Off by default so laptops
  under load don't flake.
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

from repro.harness.perf import (
    BENCHMARKS,
    NONDETERMINISTIC_KEYS,
    check_regressions,
    load_bench_json,
    run_benchmarks,
)
from repro.harness.sweep import SweepPoint, run_sweep

STRICT = pytest.mark.skipif(
    os.environ.get("REPRO_PERF_STRICT") != "1",
    reason="wall-clock gate is CI-only (REPRO_PERF_STRICT=1)",
)

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"


@pytest.fixture(scope="module")
def results():
    return run_benchmarks(repeat=1)


@pytest.fixture(scope="module")
def baseline():
    return load_bench_json(BASELINE_PATH.read_text())


def test_suite_covers_all_benchmarks(results, baseline):
    assert set(results) == set(BENCHMARKS)
    assert set(baseline) == set(BENCHMARKS)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_deterministic_metrics_match_baseline(results, baseline, name):
    current = {
        k: v for k, v in results[name].items() if k not in NONDETERMINISTIC_KEYS
    }
    expected = {
        k: v for k, v in baseline[name].items() if k not in NONDETERMINISTIC_KEYS
    }
    assert current == expected


def test_wall_times_positive(results):
    for name, entry in results.items():
        assert entry["wall_seconds"] > 0, name


@STRICT
def test_no_wall_time_regression(results, baseline):
    failures = check_regressions(results, baseline)
    assert not failures, "\n".join(failures)


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
