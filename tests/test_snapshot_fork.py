"""Snapshot/fork correctness: forked runs must be bit-identical to cold.

Three layers, mirroring the machinery's structure:

- engine level — :class:`~repro.engine.snapshot.EngineSnapshot` only
  accepts quiescent graphs (a hypothesis sweep stops simulations at
  random points and checks the legality decision), the ``_PENDING``
  sentinel and finished processes survive deep copies (through the
  pickle protocol), live processes fail loudly,
- group level — for a differential corpus spanning every workload
  family, system, ratio and a set of setup-inert driver variants,
  :func:`~repro.harness.sweep.execute_group` (shared prefix, snapshot,
  fork per point) must reproduce :func:`execute_point` (cold) results
  byte-for-byte,
- sweep level — :func:`run_sweep` reports and cache contents must be
  identical with forking on or off, serial or pooled,
- experiment level — :func:`run_uvm_experiment` (the paper tables'
  cold path) must equal a fork of the plan's own prefix for every
  workload family, the baselines and No-UVM included.

There is deliberately no tolerance anywhere in this file: snapshot
reuse is advertised as a pure wall-clock optimization, so a single
diverging bit is a semantics bug, not noise.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LmsTrainer, ManualSwapTrainer
from repro.cuda.device import rtx_3080ti
from repro.engine.core import Environment, _PENDING
from repro.engine.snapshot import EngineSnapshot, assert_quiescent
from repro.errors import SnapshotError
from repro.harness.pipeline import build_prefix, simulate
from repro.harness.runner import run_uvm_experiment
from repro.harness.sweep import (
    ResultCache,
    SweepPoint,
    execute_group,
    execute_point,
    prefix_key,
    run_sweep,
)
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import (
    CheckpointTrainer,
    DarknetTrainer,
    TrainerConfig,
    vgg16,
)
from repro.workloads.fir import FirConfig, FirWorkload

UVM_SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")


def _corpus():
    """The differential corpus: every family x system x two ratios,
    plus setup-inert driver variants and a DL grid."""
    points = []
    for workload, ratios in (
        ("fir", (1.5, 2.0)),
        ("radix", (0.9, 2.0)),
        ("hashjoin", (1.0, 2.0)),
    ):
        for system in UVM_SYSTEMS:
            for ratio in ratios:
                points.append(
                    SweepPoint(workload, system, ratio=ratio, scale=0.01)
                )
    for variant in (
        {"eviction_policy": "fifo"},
        {"discarded_queue_enabled": False},
    ):
        points.append(
            SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01, driver=variant)
        )
    for system in UVM_SYSTEMS:
        points.append(
            SweepPoint("dl:vgg16", system, batch_size=8, scale=0.03125)
        )
    # FIFO and LRU move the same bytes on FIR but not here (2.55 vs
    # 1.71 GB): a FIFO fork of the LRU-built prefix that kept the
    # builder's eviction policy diverges from its cold run.
    lru = SweepPoint("dl:vgg16", "UVM-opt", batch_size=125, scale=0.03125)
    points.append(lru)
    points.append(
        dataclasses.replace(lru, driver=(("eviction_policy", "fifo"),))
    )
    return points


def _group_id(group):
    head = group[0]
    if head.is_dl:
        return f"{head.workload}@{head.scale:g}-bs{head.batch_size}"
    return f"{head.workload}@{head.scale:g}"


def _grouped_corpus():
    groups = {}
    for point in _corpus():
        groups.setdefault(prefix_key(point), []).append(point)
    assert None not in groups
    return sorted(groups.items(), key=lambda kv: repr(kv[0]))


def _family_plans():
    """One cold-runnable plan per workload family, at scale 1/32."""
    scale = 1 / 32
    gpu = rtx_3080ti().scaled(scale)
    network = vgg16().scaled(scale)
    fits = TrainerConfig(batch_size=40)
    oversubscribed = TrainerConfig(batch_size=150)
    return {
        "fir": FirWorkload(FirConfig().scaled(scale)).plan(
            System.UVM_DISCARD, 2.0, gpu, pcie_gen4
        ),
        "darknet-discard": DarknetTrainer(
            network, oversubscribed, System.UVM_DISCARD
        ).plan(gpu, pcie_gen4),
        "darknet-no-uvm": DarknetTrainer(network, fits, System.NO_UVM).plan(
            gpu, pcie_gen4
        ),
        "lms": LmsTrainer(network, fits).plan(gpu, pcie_gen4),
        "manual-swap": ManualSwapTrainer(network, fits).plan(gpu, pcie_gen4),
        "checkpoint": CheckpointTrainer(network, oversubscribed).plan(
            gpu, pcie_gen4
        ),
    }


def _canonical(result):
    if result is None:
        return None
    return json.dumps(result.to_dict(), sort_keys=True)


class TestEngineSnapshot:
    def test_pending_sentinel_identity_survives_deepcopy(self):
        assert copy.deepcopy(_PENDING) is _PENDING
        assert copy.deepcopy({"k": _PENDING})["k"] is _PENDING

    def test_live_process_refuses_deepcopy(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        with pytest.raises(SnapshotError):
            copy.deepcopy(process)

    def test_finished_process_deepcopies_without_generator(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        process = env.process(proc())
        env.run()
        clone = copy.deepcopy(process)
        assert clone.value == "done"
        assert clone._generator is None

    def test_snapshot_rejects_pending_events(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(SnapshotError):
            EngineSnapshot(env)

    def test_snapshot_rejects_busy_runtime(self):
        from repro.cuda.runtime import CudaRuntime

        runtime = CudaRuntime()
        runtime.env.timeout(1.0)
        with pytest.raises(SnapshotError):
            EngineSnapshot(runtime)

    def test_assert_quiescent_requires_checkable_root(self):
        with pytest.raises(SnapshotError):
            assert_quiescent(object())

    def test_engine_snapshot_constructor_refuses_live_root(self):
        class _Live:
            """A fake mid-flight simulation: the precheck always refuses."""

            def snapshot_precheck(self):
                raise SnapshotError("live process frames on the event heap")

        with pytest.raises(SnapshotError):
            EngineSnapshot(_Live())

    def test_forks_are_independent(self):
        env = Environment()

        def proc():
            yield env.timeout(2.5e-6)

        env.process(proc())
        env.run()
        snapshot = EngineSnapshot(env)
        fork_a = snapshot.fork()
        assert fork_a.now == env.now

        def more(e):
            yield e.timeout(1e-6)

        fork_a.process(more(fork_a))
        fork_a.run()
        fork_b = snapshot.fork()
        assert fork_a.now > env.now
        assert fork_b.now == env.now  # payload untouched by fork_a's run

    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.integers(min_value=1, max_value=40),
        stop_steps=st.integers(min_value=0, max_value=60),
    )
    def test_snapshot_legality_at_random_stop_points(self, steps, stop_steps):
        """Stopping a simulation after an arbitrary number of events:
        a snapshot is legal exactly when the run has fully drained."""
        env = Environment()

        def proc():
            # Whole-second steps keep the accumulated clock float-exact,
            # so the deadline comparison below is not at the mercy of the
            # last ulp of a 1e-6 sum.
            for _ in range(steps):
                yield env.timeout(1.0)

        env.process(proc())
        env.run(until=float(stop_steps))
        if stop_steps >= steps:
            fork = EngineSnapshot(env).fork()
            assert fork.now == env.now
            assert fork.quiescent
        else:
            assert not env.quiescent
            with pytest.raises(SnapshotError):
                EngineSnapshot(env)


class TestPrefixKey:
    def test_no_uvm_is_never_grouped(self):
        point = SweepPoint("dl:vgg16", "No-UVM", batch_size=8, scale=0.03125)
        assert prefix_key(point) is None

    def test_system_ratio_and_inert_knobs_share_a_key(self):
        base = SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01)
        same = [
            SweepPoint("fir", "UVM-opt", ratio=2.0, scale=0.01),
            SweepPoint("fir", "UvmDiscard", ratio=3.0, scale=0.01),
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"eviction_policy": "fifo"},
            ),
        ]
        for point in same:
            assert prefix_key(point) == prefix_key(base), point.label

    def test_setup_affecting_fields_split_groups(self):
        base = SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01)
        different = [
            SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.01),
            SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.02),
            SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01, link="gen3"),
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"cpu_fault_overhead": 0.0},
            ),
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"keep_transfer_records": True},
            ),
            # The prefix builds its page tables bitmap or scalar, and a
            # fork cannot switch them.
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"vectorized": False},
            ),
        ]
        for point in different:
            assert prefix_key(point) != prefix_key(base), point.label

    def test_dl_batches_field_splits_groups(self):
        a = SweepPoint("dl:vgg16", "UvmDiscard", batch_size=8, scale=0.03125)
        b = dataclasses.replace(a, batches=5)
        assert prefix_key(a) != prefix_key(b)


class TestForkEqualsCold:
    @pytest.mark.parametrize(
        "group", [g for _, g in _grouped_corpus()],
        ids=[_group_id(g) for _, g in _grouped_corpus()],
    )
    def test_group_matches_cold_runs_byte_for_byte(self, group):
        cold = [execute_point(point) for point in group]
        forked = execute_group(group)
        for point, c, f in zip(group, cold, forked):
            assert _canonical(c) == _canonical(f), point.label

    def test_single_point_group_falls_back_to_cold(self):
        point = SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01)
        (forked,) = execute_group([point])
        assert _canonical(forked) == _canonical(execute_point(point))

    @pytest.mark.parametrize("family", list(_family_plans()))
    def test_cold_experiment_equals_fork_of_its_prefix(self, family):
        plan = _family_plans()[family]
        cold = run_uvm_experiment(plan)
        forked, _ = simulate(plan, EngineSnapshot(build_prefix(plan)))
        assert _canonical(forked) == _canonical(cold)


class TestRunSweepForking:
    POINTS = [
        SweepPoint("fir", system, ratio=ratio, scale=0.01)
        for system in ("UVM-opt", "UvmDiscard")
        for ratio in (1.5, 2.0)
    ] + [
        SweepPoint("dl:vgg16", system, batch_size=8, scale=0.03125)
        for system in ("UVM-opt", "UvmDiscard")
    ]

    def test_report_identical_with_and_without_forking(self, tmp_path):
        forked = run_sweep(
            self.POINTS, cache=ResultCache(tmp_path / "a"), snapshot_reuse=True
        )
        cold = run_sweep(
            self.POINTS, cache=ResultCache(tmp_path / "b"), snapshot_reuse=False
        )
        assert forked.to_json() == cold.to_json()
        # A cache populated by forked runs must serve cold re-runs.
        warm = run_sweep(
            self.POINTS, cache=ResultCache(tmp_path / "a"), snapshot_reuse=False
        )
        assert warm.simulated == 0
        assert warm.to_json() == forked.to_json()

    def test_pooled_grouped_execution_is_deterministic(self):
        serial = run_sweep(self.POINTS, snapshot_reuse=True)
        pooled = run_sweep(self.POINTS, jobs=2, snapshot_reuse=True)
        assert serial.to_json() == pooled.to_json()
