"""Fast-model acceptance: tolerance, cache non-aliasing, speedup.

- At calibration anchors the analytical model must reproduce the
  simulator's result exactly (it *is* the recorded run).
- Between anchors, predictions for every fig5 DL workload and multiple
  micro oversubscription ratios must stay inside the model's declared
  per-field tolerance, checked differentially against fresh simulator
  runs.
- Fast and exact results must never alias each other in the sweep
  cache, in either direction: ``mode`` is part of the serialized point
  and hence of the content-addressed key.
- A fast answer must beat a cached-cold simulation by >= 100x.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.errors import ConfigurationError
from repro.fastmodel import (
    FastModel,
    UncalibratedPointError,
    default_model,
)
from repro.fastmodel.validate import default_probe_points, validate
from repro.harness.sweep import (
    ResultCache,
    SweepPoint,
    execute_point,
    prefix_key,
    run_sweep,
)


def _fast(point: SweepPoint) -> SweepPoint:
    return dataclasses.replace(point, mode="fast")


# ---------------------------------------------------------------------------
# prediction accuracy
# ---------------------------------------------------------------------------


def _family_id(family) -> str:
    """``vgg16`` for a UvmDiscard family, ``vgg16-UVM-opt`` otherwise."""
    workload = family.key["workload"].split(":")[-1]
    system = family.key["system"]
    return workload if system == "UvmDiscard" else f"{workload}-{system}"


@pytest.mark.parametrize(
    "family",
    sorted(default_model().families.values(), key=_family_id),
    ids=_family_id,
)
def test_anchor_prediction_is_exact_for_every_fig5_workload(family):
    """Every committed calibration family — the fig5 networks and the
    paper micros, on all three UVM systems — re-simulates its first
    anchor byte for byte, and the fast answer there is that run.  So a
    calibration cannot outlive the simulator that recorded it."""
    key = family.key
    anchor = family.anchors[0]
    if key["workload"].startswith("dl:"):
        axis = {"batch_size": int(anchor.x), "batches": key.get("batches")}
    else:
        axis = {"ratio": anchor.x}
    point = SweepPoint(
        workload=key["workload"], system=key["system"], link=key["link"],
        gpu=key["gpu"], scale=key["scale"], driver=key["driver"], **axis,
    )
    exact = execute_point(point)
    fast = execute_point(_fast(point))
    assert exact is not None and fast is not None
    assert exact.to_dict() == anchor.result
    assert fast.to_dict() == exact.to_dict()


def test_anchor_prediction_is_exact_at_multiple_ratios():
    """Micro anchors at two oversubscription ratios reproduce exactly."""
    for ratio in (2.0, 4.0):
        point = SweepPoint(workload="radix", system="UvmDiscard", ratio=ratio)
        exact = execute_point(point)
        fast = execute_point(_fast(point))
        assert fast.to_dict() == exact.to_dict()


@pytest.mark.slow
def test_interpolated_predictions_within_declared_tolerance():
    """The full differential probe set — every fig5 workload plus the
    micro workloads at off-anchor oversubscription ratios — stays
    inside the model's declared tolerance."""
    report = validate(default_model(), default_probe_points(), jobs=2)
    assert report.ok, report.summary() + "".join(
        f"\n{d}" for d in report.failures
    ) + "".join(f"\n{m}" for m in report.oom_mismatches)


def test_interpolated_prediction_smoke():
    """One off-anchor DL batch and one off-anchor ratio, checked
    differentially (the fast tier-1 stand-in for the slow full sweep)."""
    model = default_model()
    probes = [
        SweepPoint(workload="dl:vgg16", system="UvmDiscard", batch_size=60),
        SweepPoint(workload="fir", system="UvmDiscardLazy", ratio=2.25),
        SweepPoint(workload="fir", system="UvmDiscardLazy", ratio=3.75),
    ]
    report = validate(model, probes)
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# mode plumbing and validation
# ---------------------------------------------------------------------------


def test_mode_is_validated():
    with pytest.raises(ConfigurationError, match="mode"):
        SweepPoint(workload="fir", system="UvmDiscard", mode="wrong")


def test_chaos_rejects_fast_mode():
    with pytest.raises(ConfigurationError, match="chaos"):
        SweepPoint(
            workload="fir",
            system="UvmDiscard",
            mode="fast",
            chaos=(("transfer_fault_interval", 10),),
        )


def test_uncalibrated_point_raises_with_guidance():
    point = SweepPoint(
        workload="fir", system="UvmDiscard", scale=0.017, mode="fast"
    )
    with pytest.raises(UncalibratedPointError, match="calibrate"):
        execute_point(point)


def test_out_of_range_axis_refuses_to_extrapolate():
    point = SweepPoint(
        workload="fir", system="UvmDiscard", ratio=9.5, mode="fast"
    )
    with pytest.raises(UncalibratedPointError, match="outside"):
        execute_point(point)


def test_serialization_round_trips_mode():
    exact = SweepPoint(workload="fir", system="UvmDiscard")
    fast = _fast(exact)
    assert "mode" not in exact.to_dict()  # legacy keys unchanged
    assert fast.to_dict()["mode"] == "fast"
    assert SweepPoint.from_dict(fast.to_dict()) == fast
    assert fast.label.endswith("+fast")
    assert prefix_key(fast) is None  # never grouped into a sim prefix


def test_fast_model_calibration_round_trips(tmp_path):
    model = default_model()
    path = tmp_path / "calibration.json"
    model.save(path)
    clone = FastModel.load(path)
    assert clone.to_json() == model.to_json()
    point = SweepPoint(
        workload="dl:rnn", system="UVM-opt", batch_size=150, mode="fast"
    )
    assert clone.predict(point).to_dict() == model.predict(point).to_dict()


# ---------------------------------------------------------------------------
# cache non-aliasing (both directions)
# ---------------------------------------------------------------------------


def test_fast_and_exact_cache_keys_are_disjoint():
    exact = SweepPoint(workload="fir", system="UvmDiscard", ratio=2.0)
    assert _fast(exact).cache_key() != exact.cache_key()


def test_exact_cache_entry_never_serves_fast_point(tmp_path):
    cache = ResultCache(tmp_path)
    exact = SweepPoint(workload="fir", system="UvmDiscard", ratio=2.0)
    cache.put(exact, {"status": "oom"})
    assert cache.get(exact) == {"status": "oom"}
    assert cache.get(_fast(exact)) is None


def test_fast_cache_entry_never_serves_exact_point(tmp_path):
    cache = ResultCache(tmp_path)
    fast = _fast(SweepPoint(workload="fir", system="UvmDiscard", ratio=2.0))
    cache.put(fast, {"status": "oom"})
    assert cache.get(fast) == {"status": "oom"}
    assert cache.get(dataclasses.replace(fast, mode="exact")) is None


def test_sweep_cache_separation_end_to_end(tmp_path):
    """A fast sweep warms only the fast namespace: the exact sweep over
    the same grid still simulates, and vice versa."""
    cache = ResultCache(tmp_path)
    exact_points = [
        SweepPoint(workload="fir", system="UvmDiscard", ratio=r)
        for r in (2.0, 3.0)
    ]
    fast_points = [_fast(p) for p in exact_points]

    first = run_sweep(fast_points, cache=cache)
    assert first.provenance == ["run", "run"]
    again = run_sweep(fast_points, cache=cache)
    assert again.provenance == ["cache", "cache"]

    exact = run_sweep(exact_points, cache=cache)
    assert exact.provenance == ["run", "run"]  # no aliasing fast -> exact
    warm = run_sweep(exact_points, cache=cache)
    assert warm.provenance == ["cache", "cache"]

    # Anchored fast predictions equal the exact runs, via disjoint keys.
    for fast_result, exact_result in zip(again.results, warm.results):
        assert fast_result.to_dict() == exact_result.to_dict()


# ---------------------------------------------------------------------------
# speed
# ---------------------------------------------------------------------------


def test_fast_model_beats_cold_simulation_100x():
    """One cached-cold sweep point: the analytical answer must be at
    least 100x faster than the discrete-event simulation."""
    point = SweepPoint(workload="dl:vgg16", system="UvmDiscard", batch_size=125)
    default_model()  # load once; the model is process-wide state

    started = time.perf_counter()
    exact = execute_point(point)
    exact_seconds = time.perf_counter() - started
    assert exact is not None

    fast_point = _fast(point)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        fast = execute_point(fast_point)
        best = min(best, time.perf_counter() - started)
    assert fast is not None
    assert exact_seconds / best >= 100, (
        f"fast model only {exact_seconds / best:.0f}x faster "
        f"({exact_seconds:.4f}s vs {best * 1e6:.0f}us)"
    )
