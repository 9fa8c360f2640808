"""Final coverage batch: leftover branches across the stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_gpu

from repro import AccessMode, BufferAccess, CudaRuntime, KernelSpec
from repro.engine import Environment
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.units import MIB
from repro.workloads.dl import TrainerConfig, darknet19, vgg16
from repro.workloads.dl.networks import NetworkSpec
from repro.workloads.dl.trainer import DarknetTrainer, _waves_for


class TestEngineDeadlines:
    def test_run_until_between_events(self):
        env = Environment()

        def ticker():
            for _ in range(10):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run(until=2.5)
        assert env.now == pytest.approx(2.5)
        env.run()  # resume to completion
        assert env.now == pytest.approx(10.0)

    def test_initial_time(self):
        env = Environment(initial_time=5.0)
        assert env.now == 5.0

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(6.0)


class TestWavesHeuristic:
    def test_bounds(self):
        assert _waves_for(0) == 1
        assert _waves_for(1 << 40) == 12
        assert 1 <= _waves_for(300 * MIB) <= 12


class TestNetworkProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_scaled_total_proportional(self, factor):
        network = darknet19()
        scaled = network.scaled(factor)
        assert scaled.total_bytes(32) == pytest.approx(
            network.total_bytes(32) * factor, rel=0.05
        )

    def test_output_bytes_never_zero(self):
        network = vgg16().scaled(0.001)
        for layer in network.layers:
            assert network.output_bytes(layer, 1) >= 4

    def test_spec_requires_layers(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            NetworkSpec(
                name="empty",
                layers=(),
                input_bytes_per_sample=4,
                label_bytes_per_sample=4,
            )


class TestWarmupMeasurement:
    def test_warmup_excluded_from_throughput(self):
        """More warm-up batches must not change the steady-state metric."""
        network = vgg16().scaled(1 / 32)
        gpu = tiny_gpu(256)

        def run(warmup, batches):
            trainer = DarknetTrainer(
                network,
                TrainerConfig(batch_size=60, batches=batches,
                              warmup_batches=warmup),
                System.UVM_OPT,
            )
            return run_uvm_experiment(trainer.plan(gpu, pcie_gen4)).metric

        assert run(1, 3) == pytest.approx(run(2, 4), rel=0.02)


class TestStatsBreakdown:
    def test_traffic_breakdown_by_reason(self):
        runtime = CudaRuntime(gpu=tiny_gpu(16))
        a = runtime.malloc_managed(10 * MIB, "a")
        b = runtime.malloc_managed(10 * MIB, "b")

        def program(cuda):
            yield from cuda.host_write(a)
            cuda.prefetch_async(a)           # prefetch H2D
            cuda.launch(                      # faults + evictions
                KernelSpec("k", [BufferAccess(b, AccessMode.WRITE)], flops=1e6)
            )
            yield from cuda.synchronize()

        runtime.run(program)
        breakdown = runtime.driver.traffic.breakdown()
        assert "prefetch" in breakdown
        assert breakdown["prefetch"] == pytest.approx(10 * MIB / 1e9, rel=0.01)
        # Eviction traffic appears once memory pressure kicked in.
        assert "eviction" in breakdown


class TestBufferEdgeSizes:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9 * MIB))
    def test_any_size_round_trips_through_the_driver(self, nbytes):
        runtime = CudaRuntime(gpu=tiny_gpu(32))
        buffer = runtime.malloc_managed(nbytes, "odd")

        def program(cuda):
            yield from cuda.host_write(buffer)
            cuda.prefetch_async(buffer)
            yield from cuda.synchronize()
            yield from cuda.host_read(buffer)

        runtime.run(program)
        assert runtime.driver.traffic.bytes_h2d == nbytes
        assert runtime.driver.traffic.bytes_d2h == nbytes
