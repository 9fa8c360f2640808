"""Tests for :mod:`repro.analysis` — attribution, waste, discard inference.

Four layers:

- conservation — every attributed view (per-buffer segments, per-phase,
  per-reason, RMT fates) re-sums to the recorder's running totals, on
  cold runs, snapshot-forked runs and chaos runs alike,
- re-export — :func:`repro.workloads.replay.per_buffer_transfer_totals`
  is the :mod:`repro.analysis.attribution` implementation, not a copy,
- inference — :func:`infer_discards` placements replayed over the
  discard-free baseline save exactly the bytes the hand-placed discards
  save (the ``repro explain --check`` contract, full-size runs of every
  workload are exercised by the CI explain-smoke job),
- reporting — :func:`explain_point` / :func:`diff_reports` shapes and
  their text renderers.
"""

from __future__ import annotations

import pytest

from repro.analysis.attribution import (
    RAW_BUCKET,
    attribution_report,
    attribution_summary,
    per_buffer_transfer_totals,
)
from repro.analysis.explain import (
    check_discard_inference,
    diff_reports,
    explain_point,
    render_check,
    render_diff,
    render_report,
)
from repro.analysis.opportunities import apply_discards, infer_discards
from repro.engine.snapshot import EngineSnapshot
from repro.harness.pipeline import build_prefix, plan_for, simulate
from repro.harness.results import ExperimentResult
from repro.harness.sweep import SweepPoint
from repro.harness.tracerun import traced_run
from repro.instrument.trace import TraceConfig, Tracer
from repro.harness.validation import collect_conservation_problems
from repro.workloads import replay as replay_module

RECORDS = (("keep_transfer_records", True),)


def point(workload="fir", system="UVM-opt", scale=0.01, **kwargs):
    kwargs.setdefault("ratio", 2.0)
    return SweepPoint(
        workload=workload, system=system, link="gen3", scale=scale,
        driver=RECORDS, **kwargs,
    )


@pytest.fixture(scope="module")
def cold():
    return traced_run(point())


@pytest.fixture(scope="module")
def forked():
    """``traced_run`` with the measured body on a snapshot fork."""
    plan = plan_for(point())
    tracer = Tracer(TraceConfig())
    result, runtime = simulate(plan, EngineSnapshot(build_prefix(plan)), tracer)
    return result, tracer, runtime


# ----------------------------------------------------------------------
# conservation
# ----------------------------------------------------------------------


class TestConservation:
    def test_cold_run_has_no_conservation_problems(self, cold):
        _, _, runtime = cold
        assert collect_conservation_problems(runtime.driver) == []

    def test_forked_run_has_no_conservation_problems(self, forked):
        _, _, runtime = forked
        assert collect_conservation_problems(runtime.driver) == []

    def test_forked_attribution_equals_cold(self, cold, forked):
        assert attribution_report(cold[2]) == attribution_report(forked[2])

    def test_report_resums_recorder_totals(self, cold):
        _, _, runtime = cold
        report = attribution_report(runtime)
        assert report["complete"] is True
        totals = report["totals"]
        for key, direction in (("bytes_h2d", "h2d"), ("bytes_d2h", "d2h"),
                               ("bytes_d2d", "d2d")):
            assert totals[key] == sum(
                row[direction] for row in report["by_buffer"].values()
            )
            assert totals[key] == sum(
                row[direction] for row in report["by_phase"].values()
            )
            assert totals[key] == sum(
                row[direction] for row in report["by_reason"].values()
            )
        waste = report["waste"]
        classified = (
            waste["useful_bytes"] + waste["redundant_bytes"]
        )
        assert classified + waste["pending_bytes"] == totals["block_bytes"]
        assert waste["redundant_bytes"] == (
            waste["overwritten_bytes"]
            + waste["discarded_bytes"]
            + waste["unused_bytes"]
        )
        assert 0.0 <= waste["redundant_fraction"] <= 1.0

    def test_chaos_run_conserves_attribution(self):
        # The chaos runner keeps transfer records and its validator folds
        # collect_conservation_problems (attribution included) into the
        # mid-flight invariant checks at every cadence boundary.
        from repro.chaos.runner import run_chaos_suite

        report = run_chaos_suite(seed=7, workloads=["fir"], strict=True)
        assert report.ok

    def test_summary_is_a_subset_of_the_report(self, cold):
        _, _, runtime = cold
        report = attribution_report(runtime)
        summary = attribution_summary(runtime)
        assert summary == {
            "complete": report["complete"],
            "waste": report["waste"],
            "by_buffer": report["by_buffer"],
        }

    def test_result_rows_carry_the_summary(self, cold):
        result, _, runtime = cold
        row = ExperimentResult.from_runtime(runtime, "UVM-opt", "200%")
        assert row.attribution == attribution_summary(runtime)
        assert ExperimentResult.from_dict(row.to_dict()) == row
        # Without retained records the field stays None (hot path).
        assert result.attribution is None or result.attribution["complete"]


# ----------------------------------------------------------------------
# re-export
# ----------------------------------------------------------------------


class TestPerBufferReexport:
    def test_replay_reexports_the_analysis_function(self):
        assert (
            replay_module.per_buffer_transfer_totals
            is per_buffer_transfer_totals
        )

    def test_totals_resum_and_bucket_raw_transfers(self, cold):
        _, _, runtime = cold
        traffic = runtime.driver.traffic
        totals = per_buffer_transfer_totals(runtime)
        assert sum(row["h2d"] for row in totals.values()) == traffic.bytes_h2d
        assert sum(row["d2h"] for row in totals.values()) == traffic.bytes_d2h
        raw = totals.get(RAW_BUCKET, {"h2d": 0, "d2h": 0, "d2d": 0})
        assert sum(raw.values()) == traffic.total_bytes - traffic.block_bytes


# ----------------------------------------------------------------------
# discard inference
# ----------------------------------------------------------------------


CHECK_SCALE = 0.03125

CHECK_POINTS = [
    # Lazy + prefetch pairing + the unpaired eager tail (reduction) and
    # eager with *negative* savings (knn windows): the two inference
    # edge cases worth paying for in tier-1 time.
    ("reduction", "UvmDiscardLazy"),
    ("knn", "UvmDiscard"),
]


class TestDiscardInference:
    @pytest.mark.parametrize("workload,system", CHECK_POINTS)
    def test_inferred_savings_match_hand_discards(self, workload, system):
        check = check_discard_inference(
            point(workload, "UVM-opt", scale=CHECK_SCALE),
            point(workload, system, scale=CHECK_SCALE),
            system,
        )
        assert check["ok"], render_check(check, workload)
        assert check["measured_savings"] == check["detected_savings"]

    def test_apply_discards_builds_a_fresh_valid_trace(self):
        from repro.workloads.replay import run_replay

        _, tracer, _ = traced_run(point("reduction", scale=CHECK_SCALE))
        from repro.workloads.replay import chrome_trace_to_replay

        trace = chrome_trace_to_replay(tracer.to_chrome_trace())
        opportunities = infer_discards(trace, "UvmDiscard")
        assert opportunities, "reduction must expose discard opportunities"
        for opp in opportunities:
            assert opp["rule"]
            assert opp["length"] > 0
            assert 0 <= opp["killer"] < len(trace.ops)
            assert 0 <= opp["insert_before"] <= len(trace.ops)
        modified = apply_discards(trace, opportunities, "UvmDiscard")
        assert len(modified.ops) == len(trace.ops) + len(opportunities)
        assert "expected" not in modified.meta
        assert modified.meta["system"] == "UvmDiscard"
        inserted = [
            op for op in modified.ops
            if op["op"] == "discard" and "t" not in op
        ]
        assert len(inserted) == len(opportunities)
        ids = [op["id"] for op in inserted]
        assert len(ids) == len(set(ids))
        base_ids = {
            op.get("id") for op in trace.ops if op.get("id") is not None
        }
        assert not base_ids.intersection(ids)
        # The modified trace replays (totals differ from the baseline:
        # that delta is the priced opportunity).
        result, _ = run_replay(modified)
        assert result is not None

    def test_host_touched_buffers_are_never_discarded(self):
        _, tracer, _ = traced_run(point("reduction", scale=CHECK_SCALE))
        from repro.workloads.replay import chrome_trace_to_replay

        trace = chrome_trace_to_replay(tracer.to_chrome_trace())
        # E1: a host access inside the measured body disqualifies the
        # whole buffer — the host still needs those bytes, so nothing in
        # it is provably dead.  (Setup-span host writes are fine.)
        measure = next(
            idx for idx, op in enumerate(trace.ops) if op["op"] == "measure"
        )
        body_host = {
            op["buffer"]
            for op in trace.ops[measure:]
            if op["op"] == "host_access"
        }
        buffers = {name for name, _, _ in trace.buffers}
        opportunities = infer_discards(trace, "UvmDiscard")
        assert opportunities
        for opp in opportunities:
            assert opp["buffer"] in buffers
            assert opp["buffer"] not in body_host


# ----------------------------------------------------------------------
# explain reports
# ----------------------------------------------------------------------


class TestExplainReports:
    @pytest.fixture(scope="class")
    def report(self):
        return explain_point(point("reduction", scale=CHECK_SCALE))

    def test_report_shape(self, report):
        assert report["oom"] is False
        assert report["attribution"]["complete"] is True
        assert report["opportunities"]
        savings = report["estimated_savings"]
        assert set(savings) == {"bytes_h2d", "bytes_d2h", "bytes_d2d"}

    def test_render_report(self, report):
        text = render_report(report)
        assert "per-buffer attribution" in text
        assert "missed discard opportunit" in text

    def test_self_diff_is_empty(self, report):
        diff = diff_reports(report, report)
        assert all(value == 0 for value in diff["totals"].values())
        assert all(value == 0 for value in diff["waste"].values())
        assert diff["by_buffer"] == {}
        assert diff["by_phase"] == {}
        assert diff["by_reason"] == {}
        assert "diff:" in render_diff(diff)

    def test_attribution_is_built_once_per_run(self, monkeypatch):
        # explain reuses the summary its result row already carries, so
        # one point builds one report, not a second one for the summary.
        import repro.analysis.attribution as attribution
        import repro.analysis.explain as explain

        entered = []
        build = attribution.attribution_report

        def counted(*args, **kwargs):
            entered.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(attribution, "attribution_report", counted)
        monkeypatch.setattr(explain, "attribution_report", counted)
        report = explain_point(point("reduction", scale=CHECK_SCALE))
        assert report["estimated_savings"]
        assert len(entered) == 1

    def test_report_reuses_the_summary_it_is_given(self, cold):
        _, _, runtime = cold
        summary = attribution_summary(runtime)
        report = attribution_report(runtime, summary)
        assert report == attribution_report(runtime)
        assert report["by_buffer"] is summary["by_buffer"]
        assert report["waste"] is summary["waste"]
        assert list(report) == [
            "complete", "totals", "by_buffer", "by_phase", "by_reason",
            "waste",
        ]

    def test_diff_tracks_byte_deltas(self, report):
        import copy

        other = copy.deepcopy(report)
        other["attribution"]["totals"]["bytes_h2d"] += 7
        other["attribution"]["by_buffer"]["reduce_values"]["h2d"] += 7
        diff = diff_reports(report, other)
        assert diff["totals"]["bytes_h2d"] == 7
        assert diff["by_buffer"]["reduce_values"]["h2d"] == 7
