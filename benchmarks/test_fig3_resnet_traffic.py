"""Figure 3: PCIe traffic of ResNet-53 vs training batch size.

Trains ResNet-53 under plain UVM across batch sizes spanning the GPU
capacity crossover and splits the measured traffic with the RMT
classifier into *required* (read before being overwritten) and
*redundant*.

Paper shape asserted: negligible traffic while the model fits; past the
crossover traffic grows steeply with batch size, and "the actual
required ... amount of memory transfer is less than half of the amount
of memory transfer ordinarily performed by UVM".
"""

from __future__ import annotations

from conftest import bench_scale, run_once

from repro.cuda.device import rtx_3080ti
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, resnet53

BATCH_SIZES = (28, 56, 84, 112, 150)


def run_sweep():
    scale = bench_scale(0.125)
    network = resnet53().scaled(scale)
    gpu = rtx_3080ti().scaled(scale)
    rows = []
    for batch_size in BATCH_SIZES:
        trainer = DarknetTrainer(
            network, TrainerConfig(batch_size=batch_size), System.UVM_OPT
        )
        result = run_uvm_experiment(trainer.plan(gpu, pcie_gen4))
        rows.append(
            {
                "batch": batch_size,
                "footprint_gb": network.total_bytes(batch_size) / 1e9,
                "total_gb": result.traffic_gb,
                "required_gb": result.useful_gb,
                "redundant_gb": result.redundant_gb,
            }
        )
    return rows


def test_fig3_resnet_traffic(benchmark, save_table):
    rows = run_once(benchmark, run_sweep)

    lines = ["Figure 3: ResNet-53 PCIe traffic vs batch size (UVM-opt)"]
    lines.append(
        f"{'batch':>6}{'footprint':>11}{'total':>9}{'required':>10}{'redundant':>11}"
    )
    for row in rows:
        lines.append(
            f"{row['batch']:>6}{row['footprint_gb']:>10.2f}G"
            f"{row['total_gb']:>8.2f}G{row['required_gb']:>9.2f}G"
            f"{row['redundant_gb']:>10.2f}G"
        )
    save_table("fig3_resnet_traffic", "\n".join(lines))

    # Traffic is near zero while the model fits and grows with batch size.
    assert rows[0]["total_gb"] < 0.1 * rows[-1]["total_gb"]
    totals = [r["total_gb"] for r in rows]
    assert all(a <= b + 0.05 for a, b in zip(totals, totals[1:]))
    # At the largest size, required < half of what UVM actually moves.
    largest = rows[-1]
    assert largest["required_gb"] < 0.55 * largest["total_gb"]
    assert largest["redundant_gb"] > 0.45 * largest["total_gb"]
    benchmark.extra_info["rows"] = rows
