"""The simulated-time tracer: determinism, schema, non-perturbation.

The contracts under test (docs/OBSERVABILITY.md):

- a cold traced run and a snapshot-fork traced run of the same point
  produce **byte-identical** trace JSON (stable span ids, equal
  ``trace_digest``) and identical metrics time series;
- two chaos runs of one seed produce equal trace digests, different
  seeds produce different timelines;
- the exported JSON is valid Chrome trace-event format and carries the
  expected categories and per-device/link tracks;
- tracing never perturbs simulation results, and an untraced run
  calls no method of the disabled tracer;
- the ``link/h2d`` and ``link/d2h`` spans account for every migrated
  byte of the run's recorded totals;
- the record cap converts overflow into a dropped-record count, which
  the result reports as ``log_dropped``.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.snapshot import EngineSnapshot
from repro.errors import ConfigurationError
from repro.harness.pipeline import build_prefix, plan_for, simulate
from repro.harness.sweep import SweepPoint, execute_point
from repro.harness.tracerun import trace_point
from repro.instrument.trace import (
    NULL_TRACER,
    NullTracer,
    TraceConfig,
    Tracer,
    merge_chrome_traces,
    validate_chrome_trace,
)

POINT = SweepPoint(
    workload="radix", system="UvmDiscard", ratio=2.0, scale=0.03125
)


@pytest.fixture(scope="module")
def cold():
    return trace_point(POINT)


@pytest.fixture(scope="module")
def forked():
    """The measured body traced on a snapshot fork of the setup prefix."""
    plan = plan_for(POINT)
    tracer = Tracer(TraceConfig())
    result, _ = simulate(plan, EngineSnapshot(build_prefix(plan)), tracer)
    return result, tracer


class TestForkDeterminism:
    def test_cold_and_forked_traces_are_byte_identical(self, cold, forked):
        _, cold_tracer = cold
        _, fork_tracer = forked
        assert cold_tracer.to_json() == fork_tracer.to_json()

    def test_digests_equal(self, cold, forked):
        assert cold[1].digest() == forked[1].digest()

    def test_metrics_series_identical(self, cold, forked):
        assert cold[1].metrics.to_csv() == forked[1].metrics.to_csv()

    def test_results_equal(self, cold, forked):
        assert cold[0] == forked[0]


class TestMetricsCsvFormat:
    """Pin the ``--metrics-csv`` export shape: dashboards parse it."""

    def test_header_row_and_column_order(self, cold):
        lines = cold[1].metrics.to_csv().splitlines()
        assert lines[0] == "series,time,value"
        assert len(lines) > 1, "traced run must record samples"
        for line in lines[1:]:
            series, time, value = line.split(",")
            assert series
            float(time), float(value)

    def test_series_grouped_and_name_sorted(self, cold):
        lines = cold[1].metrics.to_csv().splitlines()[1:]
        names = [line.split(",", 1)[0] for line in lines]
        # All samples of one series are contiguous and the groups appear
        # in sorted order — a re-run must produce a byte-identical file.
        groups = []
        for name in names:
            if not groups or groups[-1] != name:
                groups.append(name)
        assert groups == sorted(set(names))

    def test_export_is_stable_across_identical_runs(self, cold):
        repeat = trace_point(POINT)
        assert repeat[1].metrics.to_csv() == cold[1].metrics.to_csv()


class TestNonPerturbation:
    def test_traced_result_matches_untraced(self, cold):
        untraced = execute_point(POINT)
        assert untraced == cold[0]

    def test_no_uvm_point_is_rejected(self):
        point = SweepPoint(
            workload="fir", system="No-UVM", ratio=0.99, scale=0.03125
        )
        with pytest.raises(ConfigurationError):
            trace_point(point)


#: Every method of the disabled tracer.
NULL_TRACER_METHODS = (
    "span", "instant", "note_op", "op_for", "observe", "install", "uninstall"
)

#: Untraced points that between them reach the fault, eviction,
#: writeback, prefetch, eager and lazy discard, kernel and stream paths:
#: every UVMBench category and hashjoin under each UVM system, plus
#: radix, fir and two DL networks, all oversubscribed at scale 1/32.
UNTRACED_POINTS = [
    SweepPoint(workload, system, ratio=2.0, scale=0.03125)
    for workload in ("bfs", "kmeans", "knn", "stencil", "reduction", "hashjoin")
    for system in ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
] + [
    SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.03125),
    SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.03125),
    SweepPoint("dl:vgg16", "UvmDiscard", batch_size=125, scale=0.03125),
    SweepPoint("dl:resnet53", "UvmDiscardLazy", batch_size=56, scale=0.03125),
]


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


class TestFreeWhenDisabled:
    """Tracing costs nothing when no tracer is installed: every
    instrumented object keeps the shared :data:`NULL_TRACER`, and an
    untraced run never calls it, so its whole cost is the
    ``tracer.enabled`` tests at the instrumented sites."""

    def test_untraced_run_keeps_null_tracer_everywhere(self):
        runtime = _small_runtime()
        assert runtime.tracer is NULL_TRACER
        assert runtime.driver.tracer is NULL_TRACER
        assert runtime.driver.migration.tracer is NULL_TRACER
        for executor in runtime.executors.values():
            assert executor.tracer is NULL_TRACER
        for stream in runtime.streams():
            assert stream.tracer is NULL_TRACER

    def test_null_tracer_survives_copies(self):
        import copy

        assert copy.copy(NULL_TRACER) is NULL_TRACER
        assert copy.deepcopy(NULL_TRACER) is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.span("t", "n", 0.0, 1.0) == -1
        assert NULL_TRACER.instant("t", "n", 0.0) == -1

    def test_untraced_simulate_calls_no_tracer_method(self, monkeypatch):
        public = {
            name
            for name, value in vars(NullTracer).items()
            if callable(value) and not name.startswith("_")
        }
        assert public == set(NULL_TRACER_METHODS)
        calls = []
        for name in NULL_TRACER_METHODS:
            method = getattr(NullTracer, name)

            def counted(self, *args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(NullTracer, name, counted)
        for point in UNTRACED_POINTS:
            result, _ = simulate(plan_for(point))
            assert result is not None, point.label
            assert calls == [], point.label
        # The counting itself works.
        NULL_TRACER.observe("probe", 0.0)
        assert calls == ["observe"]


class TestChromeExport:
    def test_schema_valid(self, cold):
        data = json.loads(cold[1].to_json())
        assert validate_chrome_trace(data) == []

    def test_expected_categories_present(self, cold):
        categories = {r[3] for r in cold[1].events}
        for expected in ("fault", "migration", "eviction", "kernel", "discard"):
            assert expected in categories, expected

    def test_expected_tracks_present(self, cold):
        tracks = {r[1] for r in cold[1].events}
        for expected in ("gpu0/faults", "link/h2d", "gpu0/compute"):
            assert expected in tracks, expected

    def test_span_ids_are_record_positions(self, cold):
        data = json.loads(cold[1].to_json())
        ids = [
            e["args"]["id"]
            for e in data["traceEvents"]
            if e["ph"] in ("X", "i")
        ]
        assert ids == sorted(ids) == list(range(len(ids)))

    def test_digest_embedded_in_export(self, cold):
        data = json.loads(cold[1].to_json())
        assert data["otherData"]["trace_digest"] == cold[1].digest()
        assert data["otherData"]["clock"] == "simulated"

    def test_phase_seconds_nonnegative(self, cold):
        phases = cold[1].phase_seconds()
        assert phases
        assert all(v >= 0 for v in phases.values())

    def test_merge_assigns_one_pid_per_label(self, cold, forked):
        merged = merge_chrome_traces(
            [("cold", cold[1]), ("forked", forked[1])]
        )
        assert validate_chrome_trace(merged) == []
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert pids == {1, 2}
        assert set(merged["otherData"]["trace_digests"]) == {"cold", "forked"}


class TestChaosRepeatDeterminism:
    CHAOS = (
        ("seed", 7),
        ("transfer_fault_interval", 400),
        ("link_degrade_interval", 900),
        ("pressure_spike_interval", 1100),
    )

    def _traced(self, seed: int):
        import dataclasses

        chaos = tuple(
            (k, seed if k == "seed" else v) for k, v in self.CHAOS
        )
        point = dataclasses.replace(POINT, chaos=chaos)
        return trace_point(point)

    def test_same_seed_same_timeline(self):
        first = self._traced(7)
        second = self._traced(7)
        assert first[1].to_json() == second[1].to_json()
        assert first[1].digest() == second[1].digest()

    def test_chaos_instants_recorded(self):
        _, tracer = self._traced(7)
        chaos_records = [r for r in tracer.events if r[1] == "chaos"]
        assert chaos_records, "expected injected-action instants"
        assert all(r[0] == "i" for r in chaos_records)

    def test_different_seed_different_timeline(self):
        assert self._traced(7)[1].digest() != self._traced(8)[1].digest()


def _link_bytes_and_totals(tracer):
    link = {"link/h2d": 0, "link/d2h": 0}
    totals = None
    for record in tracer.events:
        if record[0] == "X" and record[1] in link:
            link[record[1]] += record[6]["bytes"]
        elif record[0] == "i" and record[2] == "totals":
            totals = record[5]
    return (link["link/h2d"], link["link/d2h"]), (
        totals["bytes_h2d"], totals["bytes_d2h"]
    )


class TestLinkSpansMatchTotals:
    """Every migrated byte shows up as a ``link/*`` span, including the
    driver's eviction write-backs."""

    def test_radix_point(self, cold):
        link, totals = _link_bytes_and_totals(cold[1])
        assert link == totals
        assert all(totals)

    def test_oversubscribed_vgg16(self):
        point = SweepPoint(
            workload="dl:vgg16", system="UvmDiscard", batch_size=125,
            scale=0.03125,
        )
        _, tracer = trace_point(point, TraceConfig(metrics_cadence=0))
        link, totals = _link_bytes_and_totals(tracer)
        assert link == totals
        assert all(totals)
        assert tracer.busy_seconds("link/d2h") > 0


class TestRecordCap:
    def test_overflow_counts_dropped(self):
        result, tracer = trace_point(
            POINT, TraceConfig(max_records=10, metrics_cadence=0)
        )
        assert len(tracer.events) == 10
        assert tracer.dropped > 0
        # The result is taken before the closing ``totals`` record, so
        # it may trail the tracer's final count by that one record.
        assert 0 < result.log_dropped <= tracer.dropped
        data = json.loads(tracer.to_json())
        assert data["otherData"]["dropped_records"] == tracer.dropped

    def test_dropped_count_feeds_digest(self):
        a = Tracer(TraceConfig())
        b = Tracer(TraceConfig())
        assert a.digest() == b.digest()
        b.dropped = 5
        assert a.digest() != b.digest()


class TestInstallLifecycle:
    def test_double_install_rejected(self, cold):
        from repro.cuda.runtime import CudaRuntime

        runtime = CudaRuntime()
        tracer = Tracer(TraceConfig())
        tracer.install(runtime)
        with pytest.raises(RuntimeError):
            tracer.install(runtime)
        tracer.uninstall()
        assert runtime.driver.tracer is NULL_TRACER

    def test_uninstall_restores_null_tracer(self):
        from repro.cuda.runtime import CudaRuntime

        runtime = CudaRuntime()
        tracer = Tracer(TraceConfig())
        tracer.install(runtime)
        assert runtime.driver.tracer is tracer
        assert runtime.driver.migration.tracer is tracer
        tracer.uninstall()
        assert runtime.driver.tracer is NULL_TRACER
        assert runtime.driver.migration.tracer is NULL_TRACER
        tracer.uninstall()  # idempotent

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(metrics_cadence=-1)
        with pytest.raises(ValueError):
            TraceConfig(max_records=0)


class TestCli:
    def test_trace_round_trip_and_validate(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        csv = tmp_path / "metrics.csv"
        assert main(
            [
                "trace", "fir", "--scale", "0.03125",
                "--out", str(out), "--metrics-csv", str(csv),
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "trace_digest:" in stdout
        assert "phase breakdown" in stdout
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []
        assert csv.read_text().startswith("series,time,value")
        assert main(["trace", "--validate", str(out)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_trace_fig_alias_and_unknown(self, capsys):
        from repro.cli import TRACE_ALIASES, main

        assert TRACE_ALIASES["fig5-vgg16"] == "dl:vgg16"
        assert main(["trace", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_run_with_trace_merges_points(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "merged.json"
        assert main(
            ["run", "fir", "--scale", "0.03125", "--trace", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []
        # 4 ratios x 3 systems = 12 traced points, one pid each.
        assert len(data["otherData"]["trace_digests"]) == 12
