"""Tests for the Darknet-style trainer across all four systems."""

import pytest

from repro.cuda.device import rtx_3080ti
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, vgg16

SCALE = 1 / 32
NETWORK = vgg16().scaled(SCALE)
GPU = rtx_3080ti().scaled(SCALE)


def train(system, batch_size, batches=3):
    trainer = DarknetTrainer(
        NETWORK, TrainerConfig(batch_size=batch_size, batches=batches), system
    )
    return run_uvm_experiment(trainer.plan(GPU, pcie_gen4))


def fit_batch():
    """A batch size that comfortably fits the scaled GPU."""
    return 40


def oversubscribed_batch():
    return 150


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(batch_size=1, batches=2, warmup_batches=2)
        assert TrainerConfig(batch_size=1).measured_batches == 2

    def test_app_bytes_matches_network(self):
        trainer = DarknetTrainer(
            NETWORK, TrainerConfig(batch_size=64), System.UVM_OPT
        )
        assert trainer.app_bytes == NETWORK.total_bytes(64)


class TestNoUvm:
    def test_works_when_fits(self):
        result = train(System.NO_UVM, fit_batch())
        assert result.metric > 0
        # Explicit management: only the programmed memcpys move data.
        assert result.counters.get("gpu_fault_batches", 0) == 0

    def test_crashes_when_oversubscribed(self):
        """Listing 4: 'This will not work if device buffers exceed GPU
        capacity.'"""
        with pytest.raises(OutOfMemoryError):
            train(System.NO_UVM, oversubscribed_batch())


class TestUvmSystems:
    def test_uvm_survives_oversubscription(self):
        result = train(System.UVM_OPT, oversubscribed_batch())
        assert result.metric > 0
        assert result.traffic_gb > 0

    def test_throughput_units(self):
        config = TrainerConfig(batch_size=fit_batch())
        trainer = DarknetTrainer(NETWORK, config, System.UVM_OPT)
        result = run_uvm_experiment(trainer.plan(GPU, pcie_gen4))
        expected = config.batch_size * config.measured_batches / result.elapsed_seconds
        assert result.metric == pytest.approx(expected)

    def test_discard_beats_uvm_when_oversubscribed(self):
        opt = train(System.UVM_OPT, oversubscribed_batch())
        eager = train(System.UVM_DISCARD, oversubscribed_batch())
        lazy = train(System.UVM_DISCARD_LAZY, oversubscribed_batch())
        assert eager.metric > 1.05 * opt.metric
        assert lazy.metric > 1.05 * opt.metric
        assert eager.traffic_gb < 0.7 * opt.traffic_gb

    def test_eager_overhead_when_fits(self):
        """§7.5.1: eager unmapping costs throughput at fit sizes; lazy
        doesn't."""
        opt = train(System.UVM_OPT, fit_batch())
        eager = train(System.UVM_DISCARD, fit_batch())
        lazy = train(System.UVM_DISCARD_LAZY, fit_batch())
        assert eager.metric < opt.metric
        assert lazy.metric > eager.metric
        # At this tiny 1/32 test scale the fixed per-op costs loom larger
        # than at the paper's scale, so allow a few percent.
        assert lazy.metric > 0.95 * opt.metric

    def test_no_lazy_misuse_in_trainer(self):
        """The trainer's prefetch pairing satisfies §5.2 everywhere."""
        result = train(System.UVM_DISCARD_LAZY, oversubscribed_batch())
        assert result.counters.get("lazy_misuses", 0) == 0

    def test_uvm_redundant_traffic_dominates_when_oversubscribed(self):
        """Figure 3's claim at the trainer level."""
        result = train(System.UVM_OPT, oversubscribed_batch())
        assert result.redundant_gb > 0.35 * result.traffic_gb

    def test_discard_eliminates_redundancy(self):
        result = train(System.UVM_DISCARD, oversubscribed_batch())
        assert result.redundant_gb < 0.1 * result.traffic_gb

    def test_more_measured_batches_scale_traffic(self):
        short = train(System.UVM_OPT, oversubscribed_batch(), batches=2)
        long = train(System.UVM_OPT, oversubscribed_batch(), batches=4)
        # 1 vs 3 measured batches: ~3x the traffic.
        assert long.traffic_gb > 2.2 * short.traffic_gb
