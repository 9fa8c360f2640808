"""Self-tests of the end-to-end benchmark.

Not on the tier-1 ``testpaths``; run them with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import collections
import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
import tracing  # noqa: E402

SRC = HERE.parent.parent / "src"


def _nominal_kinds(schedule):
    return collections.Counter(request.kind for request in schedule["nominal"])


class TestSeeding:
    def test_same_seed_same_schedule_and_order(self):
        assert suite.serve_schedule(7, 10.0) == suite.serve_schedule(7, 10.0)
        points = suite.population("dl-train")
        assert suite.pass_order(points, 7, 1) == suite.pass_order(points, 7, 1)

    def test_different_seeds_differ(self):
        a = suite.serve_schedule(7, 10.0)
        b = suite.serve_schedule(8, 10.0)
        assert [r.due for r in a["nominal"]] != [r.due for r in b["nominal"]]
        assert [r.point for r in a["nominal"]] != [r.point for r in b["nominal"]]
        points = suite.population("explain")
        assert suite.pass_order(points, 7, 0) != suite.pass_order(points, 8, 0)
        assert suite.pass_order(points, 7, 0) != suite.pass_order(points, 7, 1)

    def test_every_seed_offers_the_same_load(self):
        a = suite.serve_schedule(7, 10.0)
        b = suite.serve_schedule(8, 10.0)
        assert len(a["nominal"]) == len(b["nominal"]) == 300
        assert _nominal_kinds(a) == _nominal_kinds(b)
        assert [len(rung) for rung in a["ladder"]] == [len(rung) for rung in b["ladder"]]


class TestPercentile:
    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError):
            suite.percentile(list(range(99)), 0.9)
        with pytest.raises(ValueError):
            suite.percentile(list(range(19)), 0.5)

    def test_nearest_rank_with_enough_samples(self):
        assert suite.percentile(list(range(1, 101)), 0.9) == 90
        assert suite.percentile(list(range(1, 21)), 0.5) == 10


class TestCalibration:
    def test_times_scale_by_the_local_median(self):
        reference = suite.REFERENCE_CALIBRATION_S
        samples = [2 * reference] * 20 + [reference] * 20
        samples[5] = 50 * reference  # one preempted sample
        scales = suite.local_slowdowns(samples)
        assert scales[:12] == [2.0] * 12
        assert scales[-12:] == [1.0] * 12

    def test_run_length_is_fixed_by_the_spec(self):
        import run

        with pytest.raises(SystemExit) as exit_info:
            run.main(["--workload", "dl-train", "--seconds", "3"])
        assert exit_info.value.code == 2


class TestLayerFold:
    def test_every_module_has_exactly_one_layer(self):
        modules = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            parts = list(path.relative_to(SRC).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            modules.append(".".join(parts))
        assert len(modules) > 50
        unassigned = [m for m in modules if tracing.layer_of(m) not in tracing.LAYERS]
        assert unassigned == []

    def test_an_unlisted_package_has_no_layer(self):
        assert tracing.layer_of("repro.newpackage.module") is None
        assert tracing.layer_of("reprox") is None
        assert tracing.layer_of("repro.engine.snapshot") == "snapshot"
        assert tracing.layer_of("repro.engine.core") == "engine"


class TestReference:
    def test_a_perturbed_outcome_fails(self):
        from repro.harness.sweep import execute_point

        reference = suite.Reference.load(HERE / "reference.json")
        point = next(
            p for p in suite.population("micro-oversub")
            if p.workload == "reduction" and p.ratio == 2.0
        )
        outcome = suite.outcome_of(execute_point(point))
        assert reference.check_outcome(point, outcome)
        nudged = copy.deepcopy(outcome)
        nudged["result"]["traffic_gb"] += 1e-9
        assert not reference.check_outcome(point, nudged)
        recounted = copy.deepcopy(outcome)
        recounted["result"]["counters"]["evicted_blocks"] += 1
        assert not reference.check_outcome(point, recounted)
        assert not reference.check_outcome(point, {"status": "oom"})
