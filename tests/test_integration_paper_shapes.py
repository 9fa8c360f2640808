"""Integration tests: end-to-end reproductions of the paper's core claims
at test scale.

Each test is a miniature of one headline result; the full-size versions
live in benchmarks/.  These are the acceptance tests DESIGN.md §5 calls
out.
"""

import pytest

from repro import AccessMode, BufferAccess, CudaRuntime, KernelSpec
from repro.cuda.device import rtx_3080ti
from repro.harness.pipeline import simulate
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen3, pcie_gen4
from repro.units import MIB
from repro.workloads.fir import FirConfig, FirWorkload
from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload

from conftest import tiny_gpu

SCALE = 1 / 32
GPU = rtx_3080ti().scaled(SCALE)


def run(workload, system, ratio, link=pcie_gen4):
    return run_uvm_experiment(workload.plan(system, ratio, GPU, link))


class TestFigure2Lifecycle:
    """The RMT lifecycle of Figure 2, step by step."""

    def test_rmt_cycle_and_its_elimination(self):
        def make_runtime(discard):
            runtime = CudaRuntime(gpu=tiny_gpu(memory_mib=32))
            scratch = runtime.malloc_managed(24 * MIB, "scratch")
            other = runtime.malloc_managed(24 * MIB, "other")

            def program(cuda):
                # ① short-lived data written on the GPU
                cuda.launch(
                    KernelSpec("produce", [BufferAccess(scratch, AccessMode.WRITE)],
                               flops=1e6)
                )
                # ② data consumed; program knows it is dead
                if discard:
                    cuda.discard_async(scratch, mode="eager")
                # ③ memory pressure from another buffer
                cuda.launch(
                    KernelSpec("pressure", [BufferAccess(other, AccessMode.WRITE)],
                               flops=1e6)
                )
                if discard:
                    # 'other' is short-lived too: the informed program
                    # discards both dead buffers.
                    cuda.discard_async(other, mode="eager")
                # ④⑤ buffer re-used with entirely new data
                if discard:
                    cuda.prefetch_async(scratch)
                cuda.launch(
                    KernelSpec("reuse", [BufferAccess(scratch, AccessMode.WRITE)],
                               flops=1e6)
                )
                yield from cuda.synchronize()

            runtime.run(program)
            return runtime

        without = make_runtime(discard=False)
        with_discard = make_runtime(discard=True)
        # Without discard: the dead data was swapped out AND back in.
        assert without.driver.traffic.total_bytes > 0
        assert without.driver.rmt.redundant_bytes == without.driver.traffic.total_bytes
        # With discard: zero transfers; reclamation was free.
        assert with_discard.driver.traffic.total_bytes == 0
        assert with_discard.driver.counters["evicted_discarded_blocks"] > 0


class TestHeadlineClaims:
    def test_abstract_hash_join_claim(self):
        """'a 4.17 times speedup by eliminating 85.8% of memory transfers'
        — shape: >2x speedup, >60% eliminated at 200%."""
        workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
        opt = run(workload, System.UVM_OPT, 2.0)
        eager = run(workload, System.UVM_DISCARD, 2.0)
        speedup = opt.elapsed_seconds / eager.elapsed_seconds
        eliminated = 1 - eager.traffic_gb / opt.traffic_gb
        assert speedup > 2.0
        assert eliminated > 0.6

    def test_fir_constant_savings_claim(self):
        """'consistently eliminate 5.56GB' — savings ~constant in ratio."""
        workload = FirWorkload(FirConfig().scaled(SCALE))
        savings = []
        for ratio in (2.0, 3.0, 4.0):
            opt = run(workload, System.UVM_OPT, ratio)
            eager = run(workload, System.UVM_DISCARD, ratio)
            savings.append(opt.traffic_gb - eager.traffic_gb)
        spread = max(savings) - min(savings)
        assert spread < 0.25 * max(savings)

    def test_pcie3_and_pcie4_same_story(self):
        """Normalized runtimes barely depend on the link generation."""
        workload = FirWorkload(FirConfig().scaled(SCALE))
        ratios = {}
        for name, link in (("gen3", pcie_gen3), ("gen4", pcie_gen4)):
            opt = run(workload, System.UVM_OPT, 2.0, link)
            eager = run(workload, System.UVM_DISCARD, 2.0, link)
            ratios[name] = eager.elapsed_seconds / opt.elapsed_seconds
        assert ratios["gen3"] == pytest.approx(ratios["gen4"], abs=0.1)


class TestDriverInvariants:
    """Whole-run structural invariants checked after a stressy workload."""

    @pytest.fixture(scope="class")
    def stressed(self):
        workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
        plan = workload.plan(System.UVM_DISCARD_LAZY, 2.0, GPU, pcie_gen4)
        return simulate(plan)[1]

    def test_no_frame_leak(self, stressed):
        """Frames resident via queues equal frames the allocator handed out."""
        driver = stressed.driver
        state = driver._gpu("gpu0")
        queued = state.queues.resident_blocks() + len(state.queues.unused)
        assert queued == state.allocator.used_frames

    def test_residency_mapping_consistency(self, stressed):
        """Mapped-on-GPU implies GPU-resident; CPU-resident blocks are
        never GPU-mapped."""
        driver = stressed.driver
        table = driver.gpu_page_table("gpu0")
        for index, block in driver._blocks.items():
            if table.is_mapped(index):
                assert block.residency == "gpu0", block
            if block.on_cpu:
                assert not table.is_mapped(index)

    def test_no_corruption_in_correct_program(self, stressed):
        assert stressed.driver.oracle.corruption_count == 0
        assert stressed.driver.counters["lazy_misuses"] == 0

    def test_traffic_conservation(self, stressed):
        """Classified RMT bytes never exceed recorded traffic."""
        driver = stressed.driver
        driver.finalize()
        classified = driver.rmt.useful_bytes + driver.rmt.redundant_bytes
        assert classified <= driver.traffic.total_bytes
