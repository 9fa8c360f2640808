"""Regression tests for the two properties the methodology rests on.

1. **Determinism** — identical inputs produce bit-identical simulated
   timelines and traffic, across repeated runs.  Every calibrated number
   in EXPERIMENTS.md depends on this.
2. **Scaling invariance** — shrinking the GPU and the workload by the
   same factor preserves the *ratios* the paper's tables report
   (normalized runtime, traffic-reduction fraction), which is what
   licenses running benchmarks at 1/4-1/8 scale.
"""

import pytest

from repro.cuda.device import rtx_3080ti
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, vgg16
from repro.workloads.fir import FirConfig, FirWorkload
from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload
from repro.workloads.radix_sort import RadixSortConfig, RadixSortWorkload


class TestDeterminism:
    def _fir_once(self):
        workload = FirWorkload(FirConfig().scaled(1 / 32))
        return run_uvm_experiment(
            workload.plan(
                System.UVM_DISCARD, 2.0, rtx_3080ti().scaled(1 / 32), pcie_gen4
            )
        )

    def test_fir_bitwise_repeatable(self):
        a = self._fir_once()
        b = self._fir_once()
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.traffic_gb == b.traffic_gb
        assert a.counters == b.counters

    def test_radix_irregular_repeatable(self):
        """Seeded shuffles make even the 'random' workload deterministic."""

        def once():
            workload = RadixSortWorkload(RadixSortConfig().scaled(1 / 32))
            return run_uvm_experiment(
                workload.plan(
                    System.UVM_OPT, 2.0, rtx_3080ti().scaled(1 / 32), pcie_gen4
                )
            )

        a, b = once(), once()
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.traffic_gb == b.traffic_gb

    def test_dl_trainer_repeatable(self):
        def once():
            trainer = DarknetTrainer(
                vgg16().scaled(1 / 32),
                TrainerConfig(batch_size=120),
                System.UVM_DISCARD_LAZY,
            )
            return run_uvm_experiment(
                trainer.plan(rtx_3080ti().scaled(1 / 32), pcie_gen4)
            )

        a, b = once(), once()
        assert a.metric == b.metric
        assert a.counters == b.counters


class TestScalingInvariance:
    def _normalized(self, scale, workload_cls, config):
        workload = workload_cls(config.scaled(scale))
        gpu = rtx_3080ti().scaled(scale)
        opt = run_uvm_experiment(
            workload.plan(System.UVM_OPT, 2.0, gpu, pcie_gen4)
        )
        discard = run_uvm_experiment(
            workload.plan(System.UVM_DISCARD, 2.0, gpu, pcie_gen4)
        )
        return (
            discard.elapsed_seconds / opt.elapsed_seconds,
            1 - discard.traffic_gb / opt.traffic_gb,
        )

    def test_fir_ratios_scale_invariant(self):
        coarse = self._normalized(1 / 8, FirWorkload, FirConfig())
        fine = self._normalized(1 / 32, FirWorkload, FirConfig())
        assert coarse[0] == pytest.approx(fine[0], abs=0.08)
        assert coarse[1] == pytest.approx(fine[1], abs=0.08)

    def test_hashjoin_ratios_scale_invariant(self):
        coarse = self._normalized(1 / 8, HashJoinWorkload, HashJoinConfig())
        fine = self._normalized(1 / 32, HashJoinWorkload, HashJoinConfig())
        assert coarse[0] == pytest.approx(fine[0], abs=0.1)
        assert coarse[1] == pytest.approx(fine[1], abs=0.1)

    def test_traffic_scales_linearly(self):
        """Absolute traffic scales with the factor (ratios aside)."""
        workload_a = FirWorkload(FirConfig().scaled(1 / 8))
        workload_b = FirWorkload(FirConfig().scaled(1 / 16))
        gpu_a = rtx_3080ti().scaled(1 / 8)
        gpu_b = rtx_3080ti().scaled(1 / 16)
        traffic_a = run_uvm_experiment(
            workload_a.plan(System.UVM_OPT, 2.0, gpu_a, pcie_gen4)
        ).traffic_gb
        traffic_b = run_uvm_experiment(
            workload_b.plan(System.UVM_OPT, 2.0, gpu_b, pcie_gen4)
        ).traffic_gb
        assert traffic_a == pytest.approx(2 * traffic_b, rel=0.1)
