"""Tests for the experiment-sweep subsystem (:mod:`repro.harness.sweep`).

Covers grid expansion, on-disk cache hit/miss behaviour, worker-pool
determinism (``jobs=1`` and ``jobs=4`` must produce byte-identical
reports) and recovery from corrupted cache entries.  The ``slow``-marked
test at the bottom checks the Fig. 5 acceptance criterion: a >= 12 point
DL sweep runs measurably faster with 4 workers and re-runs entirely from
cache.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.results import ExperimentResult
from repro.harness.sweep import (
    DL_BATCH_GRID,
    ResultCache,
    SweepGrid,
    SweepPoint,
    execute_point,
    run_sweep,
)


def fir_points(ratios=(2.0, 3.0), systems=("UVM-opt", "UvmDiscard")):
    """A small, fast micro-benchmark point set."""
    return [
        SweepPoint(workload="fir", system=system, ratio=ratio, scale=0.01)
        for ratio in ratios
        for system in systems
    ]


class TestSweepPoint:
    def test_labels(self):
        micro = SweepPoint(workload="fir", system="UVM-opt", ratio=2.0)
        assert micro.config_label == "200%"
        dl = SweepPoint(workload="dl:vgg16", system="UvmDiscard", batch_size=75)
        assert dl.config_label == "bs=75"
        assert "dl:vgg16/UvmDiscard/gen4/bs=75" in dl.label

    def test_accepts_enum_names_and_values(self):
        by_value = SweepPoint(workload="fir", system="UVM-opt")
        by_name = SweepPoint(workload="fir", system="UVM_OPT")
        assert by_value.system == by_name.system == "UVM-opt"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="nope", system="UVM-opt")
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="fir", system="not-a-system")
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="dl:vgg16", system="UVM-opt")  # no batch
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="fir", system="UVM-opt", batch_size=8)
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="fir", system="UVM-opt", ratio=0.0)
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="fir", system="UVM-opt", link="gen5")
        with pytest.raises(ConfigurationError):
            SweepPoint(workload="fir", system="UVM-opt", scale=-1.0)

    def test_dict_roundtrip(self):
        point = SweepPoint(
            workload="dl:rnn", system="UvmDiscardLazy", link="gen3",
            batch_size=150, scale=0.25, driver={"eviction_policy": "fifo"},
        )
        assert SweepPoint.from_dict(point.to_dict()) == point
        with pytest.raises(ConfigurationError):
            SweepPoint.from_dict({**point.to_dict(), "bogus": 1})

    def test_cache_key_stable_and_content_sensitive(self):
        a = SweepPoint(workload="fir", system="UVM-opt", ratio=2.0)
        b = SweepPoint.from_dict(a.to_dict())
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != a.__class__(
            workload="fir", system="UVM-opt", ratio=3.0
        ).cache_key()
        assert a.cache_key() != a.__class__(
            workload="fir", system="UVM-opt", ratio=2.0, scale=0.25
        ).cache_key()
        assert a.cache_key() != a.__class__(
            workload="fir", system="UVM-opt", ratio=2.0,
            driver={"eviction_policy": "fifo"},
        ).cache_key()


class TestGridExpansion:
    def test_micro_cartesian_product(self):
        grid = SweepGrid(
            workloads=["fir", "radix"],
            systems=["UVM-opt", "UvmDiscard"],
            links=["gen3", "gen4"],
            ratios=[2.0, 3.0, 4.0],
        )
        points = grid.expand()
        assert len(points) == 2 * 2 * 2 * 3
        assert len(set(points)) == len(points)
        # Workload-major ordering is deterministic.
        assert [p.workload for p in points[:12]] == ["fir"] * 12

    def test_dl_uses_paper_grid_by_default(self):
        points = SweepGrid(workloads=["dl:vgg16"], systems=["UVM-opt"]).expand()
        assert [p.batch_size for p in points] == list(DL_BATCH_GRID["vgg16"])

    def test_dl_batch_override_and_mixed_grids(self):
        grid = SweepGrid(
            workloads=["fir", "dl:resnet53"],
            systems=["UVM-opt"],
            ratios=[2.0],
            batch_sizes=[28, 56],
        )
        points = grid.expand()
        assert [p.config_label for p in points] == ["200%", "bs=28", "bs=56"]

    def test_from_json(self):
        grid = SweepGrid.from_json(
            json.dumps(
                {
                    "workloads": ["hashjoin"],
                    "systems": ["UVM-opt", "UvmDiscard"],
                    "ratios": [2.0, 4.0],
                    "scale": 0.05,
                }
            )
        )
        points = grid.expand()
        assert len(points) == 4
        assert all(p.scale == 0.05 for p in points)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepGrid.from_json("[1, 2]")
        with pytest.raises(ConfigurationError):
            SweepGrid.from_json("{not json")
        with pytest.raises(ConfigurationError):
            SweepGrid.from_json('{"systems": ["UVM-opt"]}')  # no workloads
        with pytest.raises(ConfigurationError):
            SweepGrid.from_json('{"workloads": ["fir"], "bogus": 1}')
        with pytest.raises(ConfigurationError):
            SweepGrid(workloads=[]).expand()


class TestCacheBehaviour:
    def test_second_run_simulates_zero_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = fir_points()
        first = run_sweep(points, cache=cache)
        assert first.simulated == len(points)
        assert first.cached == 0
        second = run_sweep(points, cache=cache)
        assert second.simulated == 0
        assert second.cached == len(points)
        assert second.to_json() == first.to_json()

    def test_input_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(fir_points(ratios=(2.0,)), cache=cache)
        changed = run_sweep(fir_points(ratios=(3.0,)), cache=cache)
        assert changed.simulated == len(changed.points)

    def test_corrupted_entries_are_resimulated(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = fir_points()
        first = run_sweep(points, cache=cache)
        # Corrupt one entry with non-JSON garbage and another with valid
        # JSON of the wrong shape; leave the remaining two intact.
        cache.path_for(points[0]).write_text("not json at all {{{")
        good = json.loads(cache.path_for(points[1]).read_text())
        good["outcome"] = {"status": "ok", "result": {"bogus": 1}}
        cache.path_for(points[1]).write_text(json.dumps(good))
        second = run_sweep(points, cache=cache)
        assert second.simulated == 2
        assert second.cached == 2
        assert second.to_json() == first.to_json()
        # The corrupted entries were repaired in place.
        third = run_sweep(points, cache=cache)
        assert third.simulated == 0

    def test_oom_outcomes_are_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # No-UVM crashes when the footprint exceeds device memory (§7.5).
        point = SweepPoint(
            workload="dl:vgg16", system="No-UVM", batch_size=150, scale=0.03125
        )
        first = run_sweep([point], cache=cache)
        assert first.results == [None]
        second = run_sweep([point], cache=cache)
        assert second.cached == 1 and second.simulated == 0
        assert second.results == [None]

    def test_no_cache_writes_nothing(self, tmp_path):
        root = tmp_path / "cache"
        run_sweep(fir_points(ratios=(2.0,), systems=("UVM-opt",)))
        assert not root.exists()

    def test_progress_lines(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = fir_points(ratios=(2.0,))
        lines = []
        run_sweep(points, cache=cache, progress=lines.append)
        assert len(lines) == len(points)
        assert all("simulated" in line for line in lines)
        lines.clear()
        run_sweep(points, cache=cache, progress=lines.append)
        assert all("cached" in line for line in lines)


class TestWorkerPool:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_sweep(fir_points(), jobs=0)

    def test_parallel_results_byte_identical_to_serial(self):
        points = fir_points()
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=4)
        assert parallel.to_json() == serial.to_json()
        assert parallel.simulated == len(points)

    def test_parallel_populates_cache_identically(self, tmp_path):
        serial_cache = ResultCache(tmp_path / "serial")
        parallel_cache = ResultCache(tmp_path / "parallel")
        points = fir_points()
        run_sweep(points, jobs=1, cache=serial_cache)
        run_sweep(points, jobs=4, cache=parallel_cache)
        for point in points:
            assert (
                serial_cache.path_for(point).read_text()
                == parallel_cache.path_for(point).read_text()
            )


class TestExecutePoint:
    def test_micro_point_matches_direct_run(self):
        from repro.cuda.device import rtx_3080ti
        from repro.harness.systems import System
        from repro.interconnect import pcie_gen4
        from repro.workloads.fir import FirConfig, FirWorkload

        point = SweepPoint(workload="fir", system="UvmDiscard", ratio=2.0, scale=0.01)
        via_sweep = execute_point(point)
        direct = FirWorkload(FirConfig().scaled(0.01)).run(
            System.UVM_DISCARD, 2.0, rtx_3080ti().scaled(0.01), pcie_gen4()
        )
        assert via_sweep.to_dict() == direct.to_dict()

    def test_driver_override_changes_results(self):
        base = SweepPoint(workload="fir", system="UvmDiscard", ratio=3.0, scale=0.01)
        ablated = SweepPoint(
            workload="fir", system="UvmDiscard", ratio=3.0, scale=0.01,
            driver={"discarded_queue_enabled": False},
        )
        assert execute_point(base).counters != execute_point(ablated).counters

    def test_bad_driver_override_rejected(self):
        point = SweepPoint(
            workload="fir", system="UVM-opt", ratio=2.0, scale=0.01,
            driver={"no_such_knob": 1},
        )
        with pytest.raises(ConfigurationError):
            execute_point(point)


class TestResultSerialization:
    def test_roundtrip(self):
        result = execute_point(fir_points(ratios=(2.0,), systems=("UVM-opt",))[0])
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_corrupt_dicts_rejected(self):
        result = execute_point(fir_points(ratios=(2.0,), systems=("UVM-opt",))[0])
        data = result.to_dict()
        with pytest.raises(ValueError):
            ExperimentResult.from_dict({**data, "bogus": 1})
        with pytest.raises(ValueError):
            ExperimentResult.from_dict({"system": "UVM-opt"})


@pytest.mark.slow
def test_fig5_subgrid_speedup_and_cache_identity(tmp_path):
    """The ISSUE's acceptance sweep: >= 12 Fig. 5 DL points.

    ``--jobs 4`` must report exactly what ``--jobs 1`` does, and an
    immediate re-run must serve every point from cache with identical
    values.  The wall-clock half of the check (``--jobs 4`` beating
    ``--jobs 1``) depends on host speed and lives with the other
    wall-clock gates in ``benchmarks/perf`` (``REPRO_PERF_STRICT=1``).
    """
    points = [
        SweepPoint(workload="dl:vgg16", system=system, batch_size=batch)
        for batch in (50, 75, 100, 125)
        for system in ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
    ]
    assert len(points) >= 12

    serial = run_sweep(points, jobs=1)
    cache = ResultCache(tmp_path / "cache")
    first = run_sweep(points, jobs=4, cache=cache)
    assert first.simulated == len(points)
    assert first.to_json() == serial.to_json()
    again = run_sweep(points, jobs=4, cache=cache)
    assert again.simulated == 0
    assert again.cached == len(points)
    assert again.to_json() == first.to_json()


class TestCacheConcurrency:
    """The cache must be safe under concurrent readers/writers (the
    experiment server hammers one root from threads *and* processes).

    Regression: ``put`` used a pid-only temp name, so two threads in one
    process could interleave bytes in a single staging file and publish
    a torn JSON entry."""

    @staticmethod
    def _outcomes(point):
        """Two distinct but individually valid outcomes for one key."""
        ok = {"status": "ok", "result": execute_point(point).to_dict()}
        return ok, {"status": "oom"}

    def test_thread_hammer_never_observes_partial_writes(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path / "cache")
        point = fir_points(ratios=(2.0,), systems=("UvmDiscard",))[0]
        variants = self._outcomes(point)
        canonical = {json.dumps(v, sort_keys=True) for v in variants}
        cache.put(point, variants[0])
        torn = []

        def writer(variant):
            for _ in range(60):
                cache.put(point, variant)

        def reader():
            for _ in range(120):
                seen = cache.get(point)
                if seen is None or json.dumps(seen, sort_keys=True) not in canonical:
                    torn.append(seen)

        threads = [
            threading.Thread(target=writer, args=(variants[i % 2],))
            for i in range(4)
        ] + [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not torn, f"readers observed torn/corrupt entries: {torn[:3]}"
        final = cache.get(point)
        assert json.dumps(final, sort_keys=True) in canonical
        # No staging litter left behind.
        leftovers = [
            p for p in (tmp_path / "cache").rglob("*") if ".tmp" in p.name
        ]
        assert not leftovers

    def test_process_hammer_never_observes_partial_writes(self, tmp_path):
        import multiprocessing

        cache = ResultCache(tmp_path / "cache")
        point = fir_points(ratios=(2.0,), systems=("UvmDiscard",))[0]
        variants = self._outcomes(point)
        canonical = {json.dumps(v, sort_keys=True) for v in variants}
        cache.put(point, variants[0])
        context = multiprocessing.get_context("fork")
        failures = context.Queue()

        def hammer(variant):
            for _ in range(40):
                cache.put(point, variant)
                seen = cache.get(point)
                if seen is None or json.dumps(seen, sort_keys=True) not in canonical:
                    failures.put(seen)

        workers = [
            context.Process(target=hammer, args=(variants[i % 2],))
            for i in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert failures.empty()
        final = cache.get(point)
        assert json.dumps(final, sort_keys=True) in canonical
