"""Shape tests for the FIR, radix-sort and hash-join workloads at tiny
scale — fast versions of the Tables 3-8 assertions."""

import pytest

from repro.cuda.device import rtx_3080ti
from repro.errors import ConfigurationError
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.units import BIG_PAGE
from repro.workloads import (
    FirConfig,
    FirWorkload,
    HashJoinConfig,
    HashJoinWorkload,
    RadixSortConfig,
    RadixSortWorkload,
)

SCALE = 1 / 32
GPU = rtx_3080ti().scaled(SCALE)


def run(workload, system, ratio):
    return run_uvm_experiment(workload.plan(system, ratio, GPU, pcie_gen4))


class TestFirConfig:
    def test_window_is_block_aligned(self):
        config = FirConfig()
        assert config.window_bytes % BIG_PAGE == 0

    def test_app_bytes_counts_input_and_output(self):
        config = FirConfig()
        assert config.app_bytes == 2 * config.num_windows * config.window_bytes

    def test_scaled_keeps_window_count(self):
        config = FirConfig().scaled(0.1)
        assert config.num_windows == FirConfig().num_windows
        assert config.input_bytes < FirConfig().input_bytes

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FirConfig(num_windows=0)
        with pytest.raises(ConfigurationError):
            FirConfig(input_bytes=BIG_PAGE, num_windows=10)


class TestFirShape:
    @pytest.fixture(scope="class")
    def results(self):
        workload = FirWorkload(FirConfig().scaled(SCALE))
        out = {}
        for ratio in (0.99, 2.0):
            for system in (System.UVM_OPT, System.UVM_DISCARD):
                out[(ratio, system)] = run(workload, system, ratio)
        return out

    def test_no_eviction_when_fits(self, results):
        assert results[(0.99, System.UVM_OPT)].traffic_d2h_gb == 0

    def test_discard_eliminates_eviction_traffic(self, results):
        baseline = results[(2.0, System.UVM_OPT)]
        discard = results[(2.0, System.UVM_DISCARD)]
        assert discard.traffic_gb < 0.7 * baseline.traffic_gb
        assert discard.elapsed_seconds < 0.8 * baseline.elapsed_seconds

    def test_discard_free_when_fits(self, results):
        baseline = results[(0.99, System.UVM_OPT)]
        discard = results[(0.99, System.UVM_DISCARD)]
        assert discard.elapsed_seconds < 1.05 * baseline.elapsed_seconds

    def test_evicted_window_traffic_is_redundant(self, results):
        baseline = results[(2.0, System.UVM_OPT)]
        # The consumed windows are never read again: their evictions are
        # pure RMTs.
        assert baseline.redundant_gb > 0.3 * baseline.traffic_gb


class TestRadixShape:
    def test_eager_overhead_lazy_free_at_fit(self):
        workload = RadixSortWorkload(RadixSortConfig().scaled(SCALE))
        opt = run(workload, System.UVM_OPT, 0.99)
        eager = run(workload, System.UVM_DISCARD, 0.99)
        lazy = run(workload, System.UVM_DISCARD_LAZY, 0.99)
        assert eager.elapsed_seconds > 1.02 * opt.elapsed_seconds
        assert lazy.elapsed_seconds < 1.02 * opt.elapsed_seconds
        # Same traffic everywhere at fit (nothing to save).
        assert eager.traffic_gb == pytest.approx(opt.traffic_gb, rel=0.01)

    def test_thrashing_dominates_oversubscribed(self):
        workload = RadixSortWorkload(RadixSortConfig().scaled(SCALE))
        opt = run(workload, System.UVM_OPT, 2.0)
        eager = run(workload, System.UVM_DISCARD, 2.0)
        assert opt.traffic_gb > 3 * workload.config.app_bytes / 1e9
        assert eager.traffic_gb < opt.traffic_gb
        assert eager.elapsed_seconds < opt.elapsed_seconds

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RadixSortConfig(iterations=0)
        with pytest.raises(ConfigurationError):
            RadixSortConfig(array_bytes=0)


class TestHashJoinShape:
    def test_discard_wins_big_at_200(self):
        workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
        opt = run(workload, System.UVM_OPT, 2.0)
        eager = run(workload, System.UVM_DISCARD, 2.0)
        assert eager.elapsed_seconds < 0.6 * opt.elapsed_seconds
        assert eager.traffic_gb < 0.5 * opt.traffic_gb

    def test_dead_intermediates_classified_redundant(self):
        workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
        opt = run(workload, System.UVM_OPT, 2.0)
        assert opt.redundant_gb > 0.5 * opt.traffic_gb

    def test_lazy_system_uses_both_modes(self):
        """§7.4: 'not all UvmDiscard calls can be replaced'."""
        workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
        lazy = run(workload, System.UVM_DISCARD_LAZY, 0.99)
        assert lazy.counters.get("discarded_blocks", 0) > 0
        # No misuse: the scratch sites stayed eager.
        assert lazy.counters.get("lazy_misuses", 0) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            HashJoinConfig(rounds=0)
