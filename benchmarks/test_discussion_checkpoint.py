"""Discussion bench: gradient checkpointing vs the discard directive.

The paper's related work ([41]): "Other approach chooses to recompute
intermediate results to save memory consumption, but it does not
ultimately avoid RMTs."  This bench trains the uniform-layer RNN at an
oversubscribing batch size three ways and quantifies the trade:

- **UVM-opt** — stores everything, pays full RMTs,
- **UvmDiscard** — stores everything, RMTs eliminated by discard,
- **Checkpoint** — stores 1/segment of the activations and recomputes,
  paying ~an extra forward pass of FLOPs.
"""

from __future__ import annotations

from conftest import bench_scale, run_once

from repro.cuda.device import rtx_3080ti
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, rnn_shakespeare
from repro.workloads.dl.checkpoint import CheckpointTrainer

BATCH = 300  # ~2x the 3080 Ti's capacity for this network


def test_discussion_checkpoint_vs_discard(benchmark, save_table):
    scale = bench_scale(0.125)
    network = rnn_shakespeare().scaled(scale)
    gpu = rtx_3080ti().scaled(scale)
    config = TrainerConfig(batch_size=BATCH)

    def build():
        rows = {}
        for system in (System.UVM_OPT, System.UVM_DISCARD):
            trainer = DarknetTrainer(network, config, system)
            rows[system.value] = run_uvm_experiment(trainer.plan(gpu, pcie_gen4))
        checkpoint = CheckpointTrainer(network, config, segment=5)
        rows["Checkpoint"] = run_uvm_experiment(checkpoint.plan(gpu, pcie_gen4))
        return rows

    rows = run_once(benchmark, build)
    lines = [
        f"Discussion [41]: recompute vs discard (RNN, batch {BATCH})",
        f"{'system':<14}{'img/s':>10}{'traffic':>10}",
    ]
    for name, result in rows.items():
        lines.append(
            f"{name:<14}{result.metric:>10.1f}{result.traffic_gb:>9.2f}G"
        )
    save_table("discussion_checkpoint", "\n".join(lines))

    opt = rows[System.UVM_OPT.value]
    discard = rows[System.UVM_DISCARD.value]
    checkpoint = rows["Checkpoint"]
    # Checkpointing moves the least data (smallest live footprint)...
    assert checkpoint.traffic_gb < discard.traffic_gb < opt.traffic_gb
    # ...but its recompute cost keeps discard the fastest overall at this
    # compute-intensive operating point — the paper's argument that
    # recomputation "does not ultimately avoid RMTs" (it still moves the
    # checkpoints and pays FLOPs for the rest).
    assert discard.metric > checkpoint.metric
    assert checkpoint.traffic_gb > 0  # RMT-prone data remains
