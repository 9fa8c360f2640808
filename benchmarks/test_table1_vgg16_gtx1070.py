"""Table 1: VGG-16 training on a GTX 1070 (8 GB, PCIe-3).

Compares PyTorch-LMS (manual swapping + caching allocator),
DarkNet-UVM (UVM-opt) and DarkNet-Discard (UVM + UvmDiscard) at batch
sizes 40-80; the GPU oversubscribes from batch 60 up.

Paper shape asserted: LMS throughput is flat and low, with large,
batch-proportional traffic at *every* size; UVM is markedly faster with
near-zero traffic while the model fits, then degrades past the
crossover; the discard variant recovers part of the loss and cuts the
oversubscribed traffic.
"""

from __future__ import annotations

from conftest import bench_scale, run_once

from repro.baselines.lms import LmsTrainer
from repro.cuda.device import gtx_1070
from repro.harness.results import ResultTable
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen3
from repro.workloads.dl import DarknetTrainer, TrainerConfig, vgg16

BATCH_SIZES = (40, 50, 60, 70, 80)
ROWS = ("PyTorch-LMS", "DarkNet-UVM", "DarkNet-Discard")


def run_table1():
    scale = bench_scale(0.25)
    network = vgg16().scaled(scale)
    gpu = gtx_1070().scaled(scale)
    table = ResultTable("Table 1", [str(b) for b in BATCH_SIZES])
    for batch_size in BATCH_SIZES:
        config = TrainerConfig(batch_size=batch_size)
        for label, trainer in (
            ("PyTorch-LMS", LmsTrainer(network, config)),
            ("DarkNet-UVM", DarknetTrainer(network, config, System.UVM_OPT)),
            ("DarkNet-Discard", DarknetTrainer(network, config, System.UVM_DISCARD)),
        ):
            result = run_uvm_experiment(trainer.plan(gpu, pcie_gen3))
            result.system = label
            result.config = str(batch_size)
            table.add(result)
    return table


def test_table1_vgg16_gtx1070(benchmark, save_table):
    table = run_once(benchmark, run_table1)

    text = (
        "Table 1: VGG-16 on GTX 1070 — throughput (img/s)\n"
        + table.render("metric", fmt="{:.1f}")
        + "\n\nTable 1: VGG-16 on GTX 1070 — PCIe traffic (GB, measured batches)\n"
        + table.render("traffic_gb")
    )
    save_table("table1_vgg16_gtx1070", text)

    def tp(system, batch):
        return table.get(system, str(batch)).metric

    def traffic(system, batch):
        return table.get(system, str(batch)).traffic_gb

    # LMS: flat throughput, heavy traffic at every batch size.
    lms_tps = [tp("PyTorch-LMS", b) for b in BATCH_SIZES]
    assert max(lms_tps) / min(lms_tps) < 1.25
    for batch in BATCH_SIZES:
        assert traffic("PyTorch-LMS", batch) > 10 * traffic("DarkNet-UVM", 40)
    # UVM beats LMS while the model fits (paper: 29 vs 16 img/s).
    assert tp("DarkNet-UVM", 40) > 1.3 * tp("PyTorch-LMS", 40)
    # UVM throughput decays once oversubscribed (29 → 20).
    assert tp("DarkNet-UVM", 80) < 0.9 * tp("DarkNet-UVM", 40)
    # Discard beats plain UVM when oversubscribed (24 vs 20 at 80)...
    assert tp("DarkNet-Discard", 80) > tp("DarkNet-UVM", 80)
    # ...and cuts its traffic substantially (58 vs 152 at 80).
    assert traffic("DarkNet-Discard", 80) < 0.6 * traffic("DarkNet-UVM", 80)
    benchmark.extra_info["throughput"] = {
        row: [tp(row, b) for b in BATCH_SIZES] for row in ROWS
    }
    benchmark.extra_info["traffic_gb"] = {
        row: [traffic(row, b) for b in BATCH_SIZES] for row in ROWS
    }
