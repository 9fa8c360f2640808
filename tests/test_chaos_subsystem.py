"""Unit tests for the repro.chaos fault-injection subsystem.

One test class per fault mechanism (link degradation, transient transfer
faults with driver retry/backoff, ECC frame retirement, pressure spikes,
kernel abort-and-retry), plus the online validator's cadence contract,
the ChaosConfig serialization forms, sweep-harness integration and a CLI
smoke test.  The differential/property layer lives in
``test_chaos_property.py``; the detection oracle in
``test_validation_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import tiny_gpu

from repro.access import AccessMode
from repro.chaos import ChaosConfig, ChaosInjector, OnlineValidator
from repro.chaos.injector import _Periodic, _stream
from repro.chaos.runner import run_chaos_suite
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.errors import (
    ConfigurationError,
    InvariantViolationError,
    OutOfMemoryError,
    TransferError,
)
from repro.memsim.frames import FrameAllocator
from repro.units import BIG_PAGE, MIB


def make_runtime(memory_mib: int = 64, **config) -> CudaRuntime:
    return CudaRuntime(
        gpu=tiny_gpu(memory_mib), driver_config=UvmDriverConfig(**config)
    )


def touch_program(cuda, nbytes=8 * MIB, name="data"):
    """Minimal host-init -> prefetch -> kernel -> readback program."""
    buf = cuda.malloc_managed(nbytes, name)
    yield from cuda.host_write(buf)
    cuda.prefetch_async(buf)
    cuda.launch(
        KernelSpec("touch", [BufferAccess(buf, AccessMode.READ)], flops=1e6)
    )
    yield from cuda.synchronize()
    yield from cuda.host_read(buf)
    yield from cuda.synchronize()


class TestLinkDegradation:
    def test_degrade_scales_bandwidth_and_latency(self):
        link = make_runtime().link
        base_bw = link.effective_bandwidth(BIG_PAGE)
        base_time = link.transfer_time(BIG_PAGE)
        link.degrade(0.5, extra_latency=1e-5)
        assert link.degraded
        assert link.effective_bandwidth(BIG_PAGE) == pytest.approx(base_bw / 2)
        assert link.transfer_time(BIG_PAGE) > base_time
        link.restore()
        assert not link.degraded
        assert link.effective_bandwidth(BIG_PAGE) == pytest.approx(base_bw)
        assert link.transfer_time(BIG_PAGE) == pytest.approx(base_time)

    def test_degraded_transfer_takes_longer(self):
        fast = make_runtime()
        fast.run(lambda cuda: touch_program(cuda))
        slow = make_runtime()
        slow.link.degrade(0.25)
        slow.run(lambda cuda: touch_program(cuda))
        assert slow.env.now > fast.env.now

    def test_degrade_rejects_bad_factor(self):
        link = make_runtime().link
        for factor in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                link.degrade(factor)


class TestTransferFaults:
    def test_armed_fault_is_retried_and_charged(self):
        clean = make_runtime()
        clean.run(lambda cuda: touch_program(cuda))
        faulty = make_runtime()
        faulty.link.inject_transfer_fault()
        faulty.run(lambda cuda: touch_program(cuda))
        counters = faulty.driver.counters
        assert counters["transfer_faults"] == 1
        assert counters["transfer_retries"] == 1
        assert faulty.link.armed_faults == 0
        # The failed attempt wasted wire time plus backoff.
        assert faulty.env.now > clean.env.now

    def test_faults_past_retry_budget_escalate(self):
        runtime = make_runtime(transfer_max_retries=2)
        runtime.link.inject_transfer_fault(count=5)
        with pytest.raises(TransferError):
            runtime.run(lambda cuda: touch_program(cuda))

    def test_reconfigure_applies_retry_knobs(self):
        runtime = make_runtime()
        assert runtime.driver.migration.max_retries == 3
        runtime.driver.reconfigure(
            UvmDriverConfig(transfer_max_retries=7, transfer_retry_backoff=0.0)
        )
        assert runtime.driver.migration.max_retries == 7
        assert runtime.driver.migration.retry_backoff == 0.0

    def test_config_rejects_negative_retry_knobs(self):
        with pytest.raises(ValueError):
            UvmDriverConfig(transfer_max_retries=-1).validate()
        with pytest.raises(ValueError):
            UvmDriverConfig(transfer_retry_backoff=-1.0).validate()


class TestEccRetirement:
    def test_allocator_retires_only_free_frames(self):
        allocator = FrameAllocator("gpu0", 4 * BIG_PAGE)
        frames = [allocator.allocate() for _ in range(3)]
        allocator.retire(1)
        assert allocator.retired_frames == 1
        assert allocator.capacity_frames == 3
        assert allocator.free_frames == 0
        with pytest.raises(OutOfMemoryError):
            allocator.retire(1)  # everything left is allocated
        allocator.free(frames[0])
        allocator.retire(1)
        assert allocator.retired_frames == 2

    def test_driver_retire_vacates_resident_blocks(self):
        runtime = make_runtime(memory_mib=16)

        def program(cuda):
            buf = cuda.malloc_managed(16 * MIB, "data")
            yield from cuda.host_write(buf)
            cuda.prefetch_async(buf)
            yield from cuda.synchronize()
            # Every frame is now backing a resident block: retiring must
            # evict (remap) before the frames can disappear.
            yield from cuda.driver.retire_frames("gpu0", 2)

        runtime.run(program)
        counters = runtime.driver.counters
        assert counters["ecc_retired_frames"] == 2
        assert counters["ecc_remapped_blocks"] >= 2
        view = runtime.driver.inspect().gpus["gpu0"]
        assert view.retired_frames == 2
        assert view.capacity_frames == 6

    def test_retire_never_takes_the_last_frame(self):
        runtime = make_runtime(memory_mib=2)
        with pytest.raises(OutOfMemoryError):
            runtime.run(
                lambda cuda: cuda.driver.retire_frames("gpu0", 2)
            )


class TestPressureSpikes:
    def test_reserve_gpu_frames_evicts_to_make_room(self):
        runtime = make_runtime(memory_mib=16)
        got = {}

        def program(cuda):
            buf = cuda.malloc_managed(16 * MIB, "data")
            yield from cuda.host_write(buf)
            cuda.prefetch_async(buf)
            yield from cuda.synchronize()
            # GPU is full of resident blocks; the co-tenant still lands.
            got["frames"] = yield from cuda.driver.reserve_gpu_frames("gpu0", 3)

        runtime.run(program)
        assert got["frames"] == 3
        assert runtime.driver.counters["evicted_blocks"] > 0
        view = runtime.driver.inspect().gpus["gpu0"]
        assert view.capacity_frames == 5  # 8 - 3 reserved

    def test_reserve_gpu_frames_is_best_effort(self):
        runtime = make_runtime(memory_mib=4)
        got = {}

        def program(cuda):
            got["frames"] = yield from cuda.driver.reserve_gpu_frames("gpu0", 99)

        runtime.run(program)
        # Nothing resident, so every free frame is reservable — but no more.
        assert got["frames"] == 2


class TestKernelAbort:
    def _abort_config(self, limit=2):
        return ChaosConfig(
            seed=1, kernel_abort_probability=1.0, kernel_abort_limit=limit
        )

    def test_abort_reruns_waves_and_preserves_result(self):
        runtime = make_runtime()
        calls = []
        out = {}

        def program(cuda):
            arr = np.arange(1024, dtype=np.float64)
            buf = cuda.malloc_managed(arr.nbytes, "data", array=arr)
            yield from cuda.host_write(buf)

            def body():
                calls.append(1)
                buf.array[:] = buf.array * 2

            cuda.launch(
                KernelSpec(
                    "double",
                    [BufferAccess(buf, AccessMode.READWRITE)],
                    flops=1e6,
                    waves=4,
                    fn=body,
                )
            )
            yield from cuda.synchronize()
            yield from cuda.host_read(buf)
            yield from cuda.synchronize()
            out["result"] = buf.array.copy()

        injector = ChaosInjector(self._abort_config()).install(runtime)
        try:
            runtime.run(program)
        finally:
            injector.uninstall()
        # Two aborts (the limit), then a clean pass; fn ran exactly once.
        assert runtime.driver.counters["kernel_aborts"] == 2
        assert calls == [1]
        assert np.array_equal(out["result"], np.arange(1024) * 2.0)

    def test_abort_budget_resets_per_launch(self):
        runtime = make_runtime()

        def program(cuda):
            buf = cuda.malloc_managed(1 * MIB, "data")
            yield from cuda.host_write(buf)
            for index in range(3):
                cuda.launch(
                    KernelSpec(
                        f"k{index}",
                        [BufferAccess(buf, AccessMode.READ)],
                        flops=1e6,
                        waves=2,
                    )
                )
                yield from cuda.synchronize()

        injector = ChaosInjector(self._abort_config(limit=1)).install(runtime)
        try:
            runtime.run(program)
        finally:
            injector.uninstall()
        assert runtime.driver.counters["kernel_aborts"] == 3


class TestOnlineValidator:
    def test_checks_fire_at_cadence(self):
        runtime = make_runtime()
        validator = OnlineValidator(runtime.driver, cadence=10).install(
            runtime.env
        )
        try:
            runtime.run(lambda cuda: touch_program(cuda))
        finally:
            validator.uninstall()
        events = runtime.env.event_count
        assert validator.checks >= events // 10 - 1
        assert validator.violations == []
        assert runtime.driver.counters["invariant_checks"] == validator.checks

    def test_strict_validator_raises_on_corruption(self):
        runtime = make_runtime()
        validator = OnlineValidator(
            runtime.driver, cadence=1, strict=True
        ).install(runtime.env)

        def program(cuda):
            buf = cuda.malloc_managed(4 * MIB, "data")
            yield from cuda.host_write(buf)
            cuda.prefetch_async(buf)
            yield from cuda.synchronize()
            # Corrupt: steal a frame behind the driver's back.
            block = next(
                b for b in cuda.driver._blocks.values() if b.frame is not None
            )
            block.frame = None
            yield cuda.env.timeout(1.0)

        try:
            with pytest.raises(InvariantViolationError):
                runtime.run(program)
        finally:
            validator.uninstall()
        assert validator.violations

    def test_non_strict_records_and_continues(self):
        runtime = make_runtime()
        validator = OnlineValidator(runtime.driver, cadence=1, strict=False)
        validator.install(runtime.env)

        def program(cuda):
            buf = cuda.malloc_managed(4 * MIB, "data")
            yield from cuda.host_write(buf)
            cuda.prefetch_async(buf)
            yield from cuda.synchronize()
            block = next(
                b for b in cuda.driver._blocks.values() if b.frame is not None
            )
            frame = block.frame
            block.frame = None
            for _ in range(3):
                yield cuda.env.timeout(1.0)
            block.frame = frame  # heal before the run ends

        try:
            runtime.run(program)
        finally:
            validator.uninstall()
        assert validator.violations

    def test_rejects_nonpositive_cadence(self):
        runtime = make_runtime()
        with pytest.raises(ValueError):
            OnlineValidator(runtime.driver, cadence=0)

    def test_double_install_rejected(self):
        runtime = make_runtime()
        validator = OnlineValidator(runtime.driver).install(runtime.env)
        with pytest.raises(RuntimeError):
            validator.install(runtime.env)
        validator.uninstall()


class TestChaosConfig:
    def test_roundtrip_through_items(self):
        config = ChaosConfig.default_storm(seed=5)
        items = tuple(sorted(config.to_dict().items()))
        assert ChaosConfig.from_items(items) == config

    def test_to_dict_omits_defaults(self):
        assert ChaosConfig().to_dict() == {}
        assert ChaosConfig(seed=3).to_dict() == {"seed": 3}

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChaosConfig(link_degrade_interval=-1).validate()
        with pytest.raises(ValueError):
            ChaosConfig(batch_reorder_probability=1.5).validate()
        with pytest.raises(ValueError):
            ChaosConfig(
                link_degrade_factor_min=0.8, link_degrade_factor_max=0.2
            ).validate()
        with pytest.raises(ValueError):
            ChaosConfig(ecc_max_retired_fraction=1.0).validate()

    def test_any_enabled(self):
        assert not ChaosConfig().any_enabled
        assert ChaosConfig(transfer_fault_interval=5).any_enabled
        assert ChaosConfig.default_storm().any_enabled


class TestDeterminism:
    def test_streams_are_tag_independent(self):
        a = [_stream(1, "x").random() for _ in range(3)]
        b = [_stream(1, "x").random() for _ in range(3)]
        c = [_stream(1, "y").random() for _ in range(3)]
        assert a == b
        assert a != c

    def test_periodic_schedule_reproducible(self):
        first = _Periodic(9, "tag", 10)
        second = _Periodic(9, "tag", 10)
        fires_a = [count for count in range(200) if first.due(count)]
        fires_b = [count for count in range(200) if second.due(count)]
        assert fires_a == fires_b
        assert fires_a  # actually fired

    def test_injector_actions_reproduce(self):
        config = ChaosConfig.default_storm(seed=11)

        def run():
            runtime = make_runtime(memory_mib=8)
            injector = ChaosInjector(config).install(runtime)
            try:
                runtime.run(lambda cuda: touch_program(cuda, nbytes=12 * MIB))
            finally:
                injector.uninstall()
            return injector.actions, runtime.env.now

        (actions_a, now_a), (actions_b, now_b) = run(), run()
        assert actions_a == actions_b
        assert now_a == now_b
        assert actions_a  # chaos actually fired

    def test_double_install_rejected(self):
        runtime = make_runtime()
        injector = ChaosInjector(ChaosConfig()).install(runtime)
        with pytest.raises(RuntimeError):
            injector.install(runtime)
        injector.uninstall()

    def test_uninstall_restores_link_and_spikes(self):
        runtime = make_runtime()
        injector = ChaosInjector(ChaosConfig()).install(runtime)
        runtime.link.degrade(0.5)
        injector.uninstall()
        assert not runtime.link.degraded
        assert runtime.driver.chaos is None


class TestSweepIntegration:
    def _chaos_items(self):
        return tuple(
            sorted(
                {
                    "seed": 2,
                    "transfer_fault_interval": 40,
                    "link_degrade_interval": 90,
                    "batch_reorder_probability": 0.3,
                }.items()
            )
        )

    def test_point_roundtrip_and_cache_compat(self):
        from repro.harness.sweep import SweepPoint

        plain = SweepPoint(workload="fir", system="UvmDiscard")
        assert "chaos" not in plain.to_dict()
        chaotic = SweepPoint(
            workload="fir", system="UvmDiscard", chaos=self._chaos_items()
        )
        assert chaotic.to_dict()["chaos"] == dict(self._chaos_items())
        restored = SweepPoint.from_dict(chaotic.to_dict())
        assert restored == chaotic
        assert restored.cache_key() == chaotic.cache_key()
        assert restored.cache_key() != plain.cache_key()
        assert chaotic.label.endswith("+chaos")

    def test_no_uvm_rejects_chaos(self):
        from repro.harness.sweep import SweepPoint

        with pytest.raises(ConfigurationError):
            SweepPoint(
                workload="fir", system="No-UVM", chaos=self._chaos_items()
            )

    def test_bad_chaos_override_rejected(self):
        from repro.harness.sweep import SweepPoint

        with pytest.raises(ConfigurationError):
            SweepPoint(
                workload="fir",
                system="UvmDiscard",
                chaos=(("no_such_knob", 1),),
            )

    def test_chaos_points_share_prefix_with_fault_free(self):
        from repro.harness.sweep import SweepPoint, prefix_key

        chaotic = SweepPoint(
            workload="fir", system="UvmDiscard", chaos=self._chaos_items()
        )
        plain = SweepPoint(workload="fir", system="UvmDiscard")
        assert prefix_key(chaotic) == prefix_key(plain)

    def test_cold_and_forked_chaos_runs_agree(self):
        from repro.harness.sweep import SweepPoint, execute_group, execute_point

        chaotic = SweepPoint(
            workload="fir", system="UvmDiscard", chaos=self._chaos_items()
        )
        plain = SweepPoint(workload="fir", system="UvmDiscard")
        cold = execute_point(chaotic)
        forked, plain_forked = execute_group([chaotic, plain])
        assert cold is not None and forked is not None
        assert cold.to_dict() == forked.to_dict()
        # Chaos observably perturbed the run relative to fault-free.
        assert plain_forked is not None
        assert cold.to_dict() != plain_forked.to_dict()


class TestChaosSuiteAndCli:
    def test_suite_single_workload(self):
        report = run_chaos_suite(seed=1, workloads=["fir"], strict=True)
        assert report.ok
        (result,) = report.results
        assert result.outputs_match
        assert result.trace_reproducible
        assert result.violations == 0
        assert result.injected_actions > 0
        assert result.checks > 0

    def test_suite_unknown_workload(self):
        with pytest.raises(ValueError):
            run_chaos_suite(workloads=["nope"])

    def test_verdict_always_checks_the_tracer_digest(self):
        """Every chaos run records through a tracer, so the determinism
        verdict compares the two chaos runs' records even without an
        export; the tracers themselves are kept only for an export."""
        (result,) = run_chaos_suite(seed=7, workloads=["fir"]).results
        assert result.chaos_trace_digest
        assert result.chaos_trace_digest == result.repeat_trace_digest
        assert result.trace_reproducible
        assert result.chaos_tracer is None

    def test_cli_chaos_smoke(self, capsys):
        from repro.cli import main

        code = main(
            ["chaos", "--seed", "1", "--workloads", "fir", "--counters"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out
        assert "fir" in captured.out

    def test_cli_rejects_unknown_workload(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--workloads", "bogus"]) == 2
        assert "bad chaos spec" in capsys.readouterr().err
