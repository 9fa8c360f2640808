"""Tests for the experiment harness: oversubscription, systems, results."""

import gc
import threading
from collections import Counter
from dataclasses import replace

import pytest

from conftest import tiny_gpu

from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.harness import (
    DiscardPolicy,
    ExperimentResult,
    ResultTable,
    System,
    apply_oversubscription,
    occupant_bytes,
)
from repro.harness.pipeline import Plan, simulate
from repro.harness.runner import ratio_label, run_uvm_experiment
from repro.harness.sweep import SweepPoint, execute_point
from repro.interconnect import pcie_gen4
from repro.units import BIG_PAGE, GIB, MIB


class TestOccupantBytes:
    def test_fits_means_no_occupant(self):
        assert occupant_bytes(12 * GIB, 6 * GIB, 0.99) == 0
        assert occupant_bytes(12 * GIB, 6 * GIB, 1.0) == 0

    def test_ratio_200_halves_available(self):
        gpu = 12 * GIB
        app = 8 * GIB
        occupant = occupant_bytes(gpu, app, 2.0)
        available = gpu - occupant
        assert available == pytest.approx(app / 2.0, abs=BIG_PAGE)

    def test_occupant_is_block_aligned(self):
        occupant = occupant_bytes(12 * GIB, 8 * GIB + 12345, 3.0)
        assert occupant % BIG_PAGE == 0

    def test_impossible_ratio_rejected(self):
        # App already bigger than GPU: a 1.5x ratio can't be constructed
        # when the app/1.5 still exceeds the whole GPU.
        with pytest.raises(ConfigurationError):
            occupant_bytes(4 * GIB, 16 * GIB, 1.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            occupant_bytes(GIB, GIB, 0)
        with pytest.raises(ConfigurationError):
            occupant_bytes(GIB, 0, 2.0)

    def test_apply_reserves_memory(self):
        runtime = CudaRuntime(gpu=tiny_gpu(memory_mib=64))
        reserved = apply_oversubscription(runtime, 32 * MIB, 2.0)
        assert reserved == 48 * MIB
        assert runtime.driver.gpu_free_bytes("gpu0") == 16 * MIB


class TestSystems:
    def test_flags(self):
        assert not System.NO_UVM.uses_uvm
        assert System.UVM_OPT.uses_uvm
        assert not System.UVM_OPT.uses_discard
        assert System.UVM_DISCARD.uses_discard
        assert System.UVM_DISCARD_LAZY.uses_discard

    def test_policy_uvm_opt_never_discards(self):
        policy = DiscardPolicy(System.UVM_OPT)
        assert policy.mode_for(True) is None
        assert policy.mode_for(False) is None

    def test_policy_eager_system_always_eager(self):
        policy = DiscardPolicy(System.UVM_DISCARD)
        assert policy.mode_for(True) == "eager"
        assert policy.mode_for(False) == "eager"

    def test_policy_lazy_requires_prefetch_pairing(self):
        """§7.1: lazy replaces only prefetch-paired discards."""
        policy = DiscardPolicy(System.UVM_DISCARD_LAZY)
        assert policy.mode_for(True) == "lazy"
        assert policy.mode_for(False) == "eager"


class TestResultTable:
    def _result(self, system, config, elapsed, traffic=1.0, metric=None):
        return ExperimentResult(
            system=system,
            config=config,
            elapsed_seconds=elapsed,
            traffic_gb=traffic,
            traffic_h2d_gb=traffic / 2,
            traffic_d2h_gb=traffic / 2,
            redundant_gb=0.0,
            useful_gb=traffic,
            metric=metric,
        )

    def test_normalized_runtime(self):
        table = ResultTable("t", ["200%"])
        table.add(self._result("base", "200%", 2.0))
        table.add(self._result("fast", "200%", 1.0))
        assert table.normalized_runtime("fast", "200%", "base") == pytest.approx(0.5)

    def test_render_contains_all_cells(self):
        table = ResultTable("My table", ["<100%", "200%"])
        table.add(self._result("sysA", "<100%", 1.0, traffic=3.25))
        table.add(self._result("sysA", "200%", 2.0, traffic=7.5))
        text = table.render("traffic_gb")
        assert "My table" in text
        assert "sysA" in text
        assert "3.25" in text and "7.50" in text

    def test_render_missing_cell_dash(self):
        table = ResultTable("t", ["a", "b"])
        table.add(self._result("s", "a", 1.0))
        assert "-" in table.render("traffic_gb")

    def test_render_normalized_requires_baseline(self):
        table = ResultTable("t", ["a"])
        table.add(self._result("s", "a", 1.0))
        with pytest.raises(ValueError):
            table.render("normalized_runtime")

    def test_render_metric_none_dash(self):
        table = ResultTable("t", ["a"])
        table.add(self._result("s", "a", 1.0, metric=None))
        assert "-" in table.render("metric")


def _small_plan(**changes) -> Plan:
    """A 16 MiB UVM-opt point on a 64 MiB GPU: an 8 MiB buffer set up
    on the host, then prefetched; ``changes`` replace plan fields."""

    def setup(cuda):
        cuda.session["buffer"] = cuda.malloc_managed(8 * MIB)
        yield from ()

    def body(cuda):
        cuda.prefetch_async(cuda.session["buffer"])
        yield from cuda.synchronize()

    plan = Plan(
        setup=setup,
        body=body,
        system="UVM-opt",
        config_label="200%",
        app_bytes=16 * MIB,
        ratio=2.0,
        gpu=tiny_gpu(memory_mib=64),
        make_link=pcie_gen4,
    )
    return replace(plan, **changes)


class TestRunner:
    def test_ratio_label(self):
        assert ratio_label(0.99) == "<100%"
        assert ratio_label(1.0) == "<100%"
        assert ratio_label(2.0) == "200%"

    def test_ratio_label_boundaries(self):
        # At or below 1.0 is the paper's "fits" column; just above it
        # rounds to a plain whole-percent header.
        assert ratio_label(1.001) == "100%"
        assert ratio_label(1.25) == "125%"
        assert ratio_label(1.5) == "150%"

    def test_ratio_label_rounds_half_up_decimally(self):
        # 2.675 * 100 is 267.49999... in binary floats; the label must
        # still round the *decimal* value half-up to 268%.
        assert ratio_label(2.675) == "268%"
        assert ratio_label(1.125) == "113%"
        assert ratio_label(3.9999) == "400%"

    def test_run_uvm_experiment_end_to_end(self):
        plan = _small_plan(metric=lambda rt: 42.0)
        result = run_uvm_experiment(plan)
        assert result.system == "UVM-opt"
        assert result.config == "200%"
        assert result.metric == 42.0
        assert result.counters["zeroed_blocks"] == 4

        def too_big(cuda):
            yield from cuda.malloc_device(128 * MIB)

        with pytest.raises(OutOfMemoryError, match="do not fit in the"):
            run_uvm_experiment(replace(plan, body=too_big))


#: A Fig. 5 training point, short enough to run twice per test.
DARKNET_POINT = SweepPoint(
    "dl:darknet19", "UvmDiscard", batch_size=360, scale=1 / 32, batches=2
)


class TestCollectorEpoch:
    """Each simulate() call is one collector epoch: the cyclic collector
    is off while it runs and back in the caller's setting afterwards."""

    def test_restored_after_a_normal_return(self):
        seen = {}

        def body(cuda):
            seen["inside"] = gc.isenabled()
            yield from cuda.synchronize()

        result, runtime = simulate(_small_plan(body=body))
        assert result is not None and runtime is not None
        assert seen["inside"] is False
        assert gc.isenabled()

    def test_restored_after_a_prefix_oom(self):
        def setup(cuda):
            yield from cuda.malloc_device(128 * MIB)

        assert simulate(_small_plan(setup=setup)) == (None, None)
        assert gc.isenabled()

    def test_restored_after_a_body_that_raises(self):
        def body(cuda):
            yield from cuda.synchronize()
            raise ValueError("body failed")

        with pytest.raises(ValueError, match="body failed"):
            simulate(_small_plan(body=body))
        assert gc.isenabled()

    def test_nested_call_leaves_the_outer_epoch_running(self):
        seen = {}

        def body(cuda):
            seen["inner"] = simulate(_small_plan())[0]
            seen["after_inner"] = gc.isenabled()
            yield from cuda.synchronize()

        assert simulate(_small_plan(body=body))[0] is not None
        assert seen["inner"] is not None
        assert seen["after_inner"] is False
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            assert simulate(_small_plan())[0] is not None
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_caller_leaving_during_another_entry_keeps_the_collector_on(
        self, monkeypatch
    ):
        # Caller A leaves its epoch while caller B sits between reading
        # the collector state (off, because A is inside) and switching
        # it off.  Unless the read and the switch are one step, B would
        # switch off after A switched back on, and nobody would re-enable.
        a_inside = threading.Event()
        a_may_leave = threading.Event()
        a_left = threading.Event()
        errors = []

        def held_body(cuda):
            a_inside.set()
            a_may_leave.wait(timeout=30)
            yield from cuda.synchronize()

        def caller_a():
            try:
                simulate(_small_plan(body=held_body))
            except Exception as exc:  # reported below
                errors.append(exc)
            a_left.set()

        def caller_b():
            try:
                simulate(_small_plan())
            except Exception as exc:  # reported below
                errors.append(exc)

        isenabled = gc.isenabled

        def isenabled_then_let_a_leave():
            enabled = isenabled()
            if threading.current_thread() is b:
                a_may_leave.set()
                a_left.wait(timeout=0.2)
            return enabled

        a = threading.Thread(target=caller_a)
        b = threading.Thread(target=caller_b)
        monkeypatch.setattr(gc, "isenabled", isenabled_then_let_a_leave)
        try:
            a.start()
            assert a_inside.wait(timeout=30)
            b.start()
            a.join(timeout=60)
            b.join(timeout=60)
        finally:
            a_may_leave.set()
        assert not a.is_alive() and not b.is_alive()
        assert not errors, errors
        assert isenabled()

    def test_cyclic_garbage_does_not_grow_with_run_length(self, collector_off):
        left = {}
        for batches in (2, 4):
            assert execute_point(replace(DARKNET_POINT, batches=batches))
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                left[batches] = Counter(type(o).__name__ for o in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.collect()  # the saved cycles are garbage again
        assert left[2] == left[4]
        assert not {"Process", "generator", "method"} & set(left[4])

    def test_repeated_points_leave_no_growing_graph(self):
        gc.collect()
        before = len(gc.get_objects())
        left = []
        for _ in range(12):
            assert execute_point(DARKNET_POINT)
            left.append(len(gc.get_objects()) - before)
        assert max(left) <= 1.02 * left[1], left
