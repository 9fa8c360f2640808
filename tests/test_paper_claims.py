"""Executive-summary tests: the abstract's numbered claims, at test scale.

Each test reproduces one sentence from the paper's abstract/intro as a
qualitative band (our simulator reproduces shapes, not testbed-exact
numbers — see EXPERIMENTS.md for the full comparison).
"""

import pytest

from repro.cuda.device import rtx_3080ti
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import (
    DarknetTrainer,
    TrainerConfig,
    darknet19,
    rnn_shakespeare,
)
from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload

SCALE = 1 / 16
GPU = rtx_3080ti().scaled(SCALE)


def run(workload, system, ratio):
    return run_uvm_experiment(workload.plan(system, ratio, GPU, pcie_gen4))


def train(network, batch, system):
    trainer = DarknetTrainer(
        network.scaled(SCALE), TrainerConfig(batch_size=batch), system
    )
    return run_uvm_experiment(trainer.plan(GPU, pcie_gen4))


class TestAbstractClaims:
    def test_database_speedup_claim(self):
        """'For a GPU database application with a data size twice the GPU
        memory, UvmDiscard enables a 4.17 times speedup by eliminating
        85.8% of memory transfers.'  Band: >=2.5x and >=65%."""
        workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
        opt = run(workload, System.UVM_OPT, 2.0)
        eager = run(workload, System.UVM_DISCARD, 2.0)
        speedup = opt.elapsed_seconds / eager.elapsed_seconds
        eliminated = 1 - eager.traffic_gb / opt.traffic_gb
        assert speedup >= 2.5
        assert eliminated >= 0.65

    def test_rnn_claim(self):
        """'eliminate up to 60.9% of memory transfers by a compute-
        intensive recurrent neural network leading to 22.8% higher
        training throughput.'  Band: >=35% traffic, >=15% throughput."""
        opt = train(rnn_shakespeare(), 300, System.UVM_OPT)
        eager = train(rnn_shakespeare(), 300, System.UVM_DISCARD)
        traffic_cut = 1 - eager.traffic_gb / opt.traffic_gb
        throughput_gain = eager.metric / opt.metric - 1
        assert traffic_cut >= 0.35
        assert throughput_gain >= 0.15

    def test_memory_intensive_cnn_claim(self):
        """'decrease memory transfers by 60.6% on a memory-intensive
        convolutional neural network resulting in 61.2% higher training
        throughput.'  Band: >=50% traffic, >=40% throughput."""
        opt = train(darknet19(), 360, System.UVM_OPT)
        eager = train(darknet19(), 360, System.UVM_DISCARD)
        traffic_cut = 1 - eager.traffic_gb / opt.traffic_gb
        throughput_gain = eager.metric / opt.metric - 1
        assert traffic_cut >= 0.5
        assert throughput_gain >= 0.4

    def test_lazy_alleviates_eager_overhead_claim(self):
        """'UvmDiscardLazy also consistently alleviates the API overhead
        of UvmDiscard' — at fit sizes, lazy >= eager throughput."""
        for network, batch in ((darknet19(), 100), (rnn_shakespeare(), 100)):
            eager = train(network, batch, System.UVM_DISCARD)
            lazy = train(network, batch, System.UVM_DISCARD_LAZY)
            assert lazy.metric >= eager.metric, network.name

    def test_without_uvm_thousands_of_lines_claim(self):
        """'Without UVM, more than 2,000 extra lines of application-
        specific code are required' — our stand-in: the manual No-UVM
        path simply cannot run oversubscribed sizes at all."""
        from repro.errors import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            train(darknet19(), 360, System.NO_UVM)
        assert train(darknet19(), 360, System.UVM_OPT).metric > 0
