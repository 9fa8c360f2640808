"""Tracing must be free when no tracer is installed.

Two layers, mirroring ``test_perf_suite.py``:

- **Structural** (always on): after an untraced run every instrumented
  object still holds the shared :data:`NULL_TRACER` singleton — so an
  untraced run's entire cost is one attribute load plus a truth test
  per instrumented call site, none of which sit on engine hot loops.
- **Wall time** (opt-in via ``REPRO_PERF_STRICT=1``, the CI perf-smoke
  job): ``engine_churn`` — the pure engine event loop, which by
  construction contains zero tracer code — must stay within
  ``REPRO_TRACE_OVERHEAD_FACTOR`` (default 1.05) of the committed
  baseline.  The tighter-than-2x budget is the ISSUE's "<= 5% overhead
  with tracing disabled" acceptance gate; the env override exists for
  runner generations whose absolute speed differs from the baseline
  machine's.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.perf import load_bench_json, run_benchmarks
from repro.instrument.trace import NULL_TRACER

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"

OVERHEAD_FACTOR_ENV = "REPRO_TRACE_OVERHEAD_FACTOR"
DEFAULT_OVERHEAD_FACTOR = 1.05


def _small_runtime():
    import numpy as np

    from repro.cuda.runtime import CudaRuntime

    runtime = CudaRuntime()

    def program(cuda):
        from repro.workloads.vector_add import uvm_vector_add

        result = yield from uvm_vector_add(cuda, 1 << 16)
        assert np.allclose(result, np.arange(1 << 16, dtype=np.float32) + 2.0)

    runtime.run(program)
    return runtime


def test_untraced_run_keeps_null_tracer_everywhere():
    runtime = _small_runtime()
    assert runtime.tracer is NULL_TRACER
    assert runtime.driver.tracer is NULL_TRACER
    assert runtime.driver.migration.tracer is NULL_TRACER
    for executor in runtime.executors.values():
        assert executor.tracer is NULL_TRACER
    for stream in runtime.streams():
        assert stream.tracer is NULL_TRACER


def test_null_tracer_survives_copies():
    import copy

    assert copy.copy(NULL_TRACER) is NULL_TRACER
    assert copy.deepcopy(NULL_TRACER) is NULL_TRACER
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.span("t", "n", 0.0, 1.0) == -1
    assert NULL_TRACER.instant("t", "n", 0.0) == -1


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_STRICT") != "1",
    reason="wall-clock gate is CI-only (REPRO_PERF_STRICT=1)",
)
def test_tracing_disabled_engine_churn_overhead():
    baseline = load_bench_json(BASELINE_PATH.read_text())
    factor = float(
        os.environ.get(OVERHEAD_FACTOR_ENV, DEFAULT_OVERHEAD_FACTOR)
    )
    results = run_benchmarks(["engine_churn"], repeat=5)
    wall = results["engine_churn"]["wall_seconds"]
    limit = baseline["engine_churn"]["wall_seconds"] * factor
    assert wall <= limit, (
        f"engine_churn {wall:.4f} s exceeds the tracing-disabled overhead "
        f"budget {limit:.4f} s ({factor:g}x baseline); either tracer code "
        f"leaked onto the engine hot path or the runner is slower than the "
        f"baseline machine (override with {OVERHEAD_FACTOR_ENV})"
    )
