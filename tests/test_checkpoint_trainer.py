"""Tests for the gradient-checkpointing trainer ([41] comparison)."""

import pytest

from repro.cuda.device import rtx_3080ti
from repro.errors import ConfigurationError
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, rnn_shakespeare, vgg16
from repro.workloads.dl.checkpoint import CheckpointTrainer

SCALE = 1 / 32
NETWORK = vgg16().scaled(SCALE)
#: Uniform per-layer activations: the architecture checkpointing suits.
UNIFORM = rnn_shakespeare().scaled(SCALE)
GPU = rtx_3080ti().scaled(SCALE)


def run_checkpoint(batch, segment=4, discard_mode="eager"):
    trainer = CheckpointTrainer(
        NETWORK, TrainerConfig(batch_size=batch), segment=segment,
        discard_mode=discard_mode,
    )
    return trainer, run_uvm_experiment(trainer.plan(GPU, pcie_gen4))


def run_plain(batch):
    trainer = DarknetTrainer(
        NETWORK, TrainerConfig(batch_size=batch), System.UVM_DISCARD
    )
    return run_uvm_experiment(trainer.plan(GPU, pcie_gen4))


class TestConfiguration:
    def test_segment_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointTrainer(NETWORK, TrainerConfig(batch_size=8), segment=1)

    def test_footprint_smaller_than_full_storage(self):
        trainer = CheckpointTrainer(
            UNIFORM, TrainerConfig(batch_size=300), segment=5
        )
        assert trainer.app_bytes < 0.7 * UNIFORM.total_bytes(300)


class TestBehaviour:
    def test_runs_and_recomputes(self):
        trainer, result = run_checkpoint(batch=60)
        assert result.metric > 0
        # Recomputation: clearly more kernel launches than the plain
        # trainer's 3 per layer (fwd + bwd + update).
        assert result.counters.get("discarded_blocks", 0) > 0

    def test_slower_than_plain_when_memory_ample(self):
        """When everything fits, recomputation is pure overhead."""
        _, checkpointed = run_checkpoint(batch=30)
        plain = run_plain(30)
        assert checkpointed.metric < plain.metric

    def test_moves_less_data_when_memory_tight(self):
        """The [41] trade: less live data, so fewer required transfers —
        at the price of recompute."""
        batch = 170  # well past the crossover at this scale
        _, checkpointed = run_checkpoint(batch=batch)
        plain = run_plain(batch)
        assert checkpointed.traffic_gb < plain.traffic_gb

    def test_no_corruption_either_mode(self):
        for mode in ("eager", "lazy"):
            trainer, result = run_checkpoint(batch=100, discard_mode=mode)
            assert result.counters.get("lazy_misuses", 0) == 0

    def test_front_heavy_networks_gain_little(self):
        """A real architectural property: VGG's first conv layers hold
        most of the activation bytes, so any checkpoint scheme that keeps
        layer 0 plus a live first segment saves almost nothing — while
        the uniform RNN saves a lot."""
        vgg_trainer = CheckpointTrainer(
            NETWORK, TrainerConfig(batch_size=64), segment=4
        )
        rnn_trainer = CheckpointTrainer(
            UNIFORM, TrainerConfig(batch_size=300), segment=5
        )
        vgg_saving = 1 - vgg_trainer.app_bytes / NETWORK.total_bytes(64)
        rnn_saving = 1 - rnn_trainer.app_bytes / UNIFORM.total_bytes(300)
        assert rnn_saving > vgg_saving + 0.2
