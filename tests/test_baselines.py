"""Tests for the baselines: caching allocator, LMS, manual swap."""

import pytest

from conftest import tiny_gpu

from repro.baselines import CachingAllocator, LmsTrainer, ManualSwapTrainer
from repro.cuda.runtime import CudaRuntime
from repro.errors import OutOfMemoryError, SimulationError
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen3
from repro.units import BIG_PAGE, MIB
from repro.workloads.dl import DarknetTrainer, TrainerConfig, vgg16

SCALE = 1 / 32
NETWORK = vgg16().scaled(SCALE)
GPU = tiny_gpu(memory_mib=512)


class TestCachingAllocator:
    def _run(self, body):
        runtime = CudaRuntime(gpu=tiny_gpu(memory_mib=64))
        runtime.run(body)
        return runtime

    def test_size_class_rounds_to_blocks(self):
        assert CachingAllocator.size_class(1) == BIG_PAGE
        assert CachingAllocator.size_class(BIG_PAGE) == BIG_PAGE
        assert CachingAllocator.size_class(BIG_PAGE + 1) == 2 * BIG_PAGE

    def test_reuse_is_free(self):
        timings = {}

        def program(cuda):
            allocator = CachingAllocator(cuda)
            start = cuda.env.now
            buffer = yield from allocator.alloc(4 * MIB)
            timings["miss"] = cuda.env.now - start
            allocator.free(buffer)
            start = cuda.env.now
            again = yield from allocator.alloc(4 * MIB)
            timings["hit"] = cuda.env.now - start
            assert again is buffer
            assert allocator.hits == 1 and allocator.misses == 1

        self._run(program)
        assert timings["miss"] > 0
        assert timings["hit"] == 0

    def test_distinct_size_classes_not_shared(self):
        def program(cuda):
            allocator = CachingAllocator(cuda)
            small = yield from allocator.alloc(2 * MIB)
            allocator.free(small)
            big = yield from allocator.alloc(8 * MIB)
            assert big is not small
            assert allocator.misses == 2

        self._run(program)

    def test_cache_released_on_oom(self):
        """PyTorch semantics: empty the cache and retry before failing."""

        def program(cuda):
            allocator = CachingAllocator(cuda)
            hog = yield from allocator.alloc(48 * MIB)
            allocator.free(hog)
            assert allocator.cached_bytes == 48 * MIB
            # Doesn't fit beside the cached 48 MiB on a 64 MiB device.
            other = yield from allocator.alloc(32 * MIB)
            assert other.nbytes == 32 * MIB
            assert allocator.cached_bytes == 0
            allocator.free(other)
            yield from allocator.release_all()

        runtime = self._run(program)
        assert runtime.driver.gpu_free_bytes("gpu0") == runtime.gpu.memory_bytes

    def test_true_oom_propagates(self):
        def program(cuda):
            allocator = CachingAllocator(cuda)
            yield from allocator.alloc(128 * MIB)  # > 64 MiB device

        with pytest.raises(OutOfMemoryError):
            self._run(program)

    def test_double_cache_free_rejected(self):
        def program(cuda):
            allocator = CachingAllocator(cuda)
            buffer = yield from allocator.alloc(2 * MIB)
            yield from cuda.free_device(buffer)
            allocator.free(buffer)

        with pytest.raises(SimulationError):
            self._run(program)


def train(trainer_cls, batch_size, *args):
    trainer = trainer_cls(NETWORK, TrainerConfig(batch_size=batch_size), *args)
    return run_uvm_experiment(trainer.plan(GPU, pcie_gen3))


class TestLmsTrainer:
    def test_runs_at_any_batch_size(self):
        for batch in (40, 150):
            result = train(LmsTrainer, batch)
            assert result.metric > 0
            assert result.system == "PyTorch-LMS"

    def test_traffic_scales_with_batch_not_capacity(self):
        """Table 1: LMS swaps everything every batch, fit or not."""
        small = train(LmsTrainer, 40)
        large = train(LmsTrainer, 80)
        assert large.traffic_gb > 1.6 * small.traffic_gb

    def test_swap_traffic_reason(self):
        result = train(LmsTrainer, 40)
        # All LMS traffic is explicit swapping, no UVM machinery involved.
        assert result.counters.get("gpu_fault_batches", 0) == 0
        assert result.counters.get("evicted_blocks", 0) == 0

    def test_slower_than_uvm_when_fits(self):
        lms = train(LmsTrainer, 40)
        uvm = train(DarknetTrainer, 40, System.UVM_OPT)
        assert uvm.metric > 1.1 * lms.metric


class TestManualSwapTrainer:
    def test_runs_and_pays_api_costs(self):
        result = train(ManualSwapTrainer, 40)
        assert result.metric > 0

    def test_slower_than_cached_lms(self):
        """§6: the caching allocator exists because Table-2 costs hurt."""
        raw = train(ManualSwapTrainer, 40)
        cached = train(LmsTrainer, 40)
        assert cached.metric > raw.metric

    def test_survives_oversubscribing_batch(self):
        result = train(ManualSwapTrainer, 150)
        assert result.metric > 0
