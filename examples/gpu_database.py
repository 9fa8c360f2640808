#!/usr/bin/env python3
"""GPU database hash-join under memory oversubscription (§7.4).

Reproduces the paper's headline result: "For a GPU database application
with a data size twice the GPU memory, UvmDiscard enables a 4.17 times
speedup by eliminating 85.8% of memory transfers."

The join's preprocessing kernels fill large scratch and partition buffers
that are dead as soon as the join consumes them; without the discard
directive the UVM driver dutifully swaps all of that dead data out to the
host and back again every round.

Run:  python examples/gpu_database.py
"""

from __future__ import annotations

from repro.cuda.device import rtx_3080ti
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload

SCALE = 1 / 4
RATIOS = (0.99, 2.0, 3.0, 4.0)


def main() -> None:
    workload = HashJoinWorkload(HashJoinConfig().scaled(SCALE))
    gpu = rtx_3080ti().scaled(SCALE)
    print(
        f"hash-join footprint: {workload.config.app_bytes / 1e9:.2f} GB, "
        f"GPU: {gpu.memory_bytes / 1e9:.2f} GB (1/4 scale)\n"
    )
    print(f"{'oversub.':>9} {'system':>16} {'runtime':>9} {'speedup':>8} {'traffic':>9}")
    for ratio in RATIOS:
        baseline = None
        for system in (System.UVM_OPT, System.UVM_DISCARD, System.UVM_DISCARD_LAZY):
            result = run_uvm_experiment(workload.plan(system, ratio, gpu, pcie_gen4))
            if baseline is None:
                baseline = result.elapsed_seconds
            label = "<100%" if ratio <= 1 else f"{ratio:.0%}"
            print(
                f"{label:>9} {system.value:>16} "
                f"{result.elapsed_seconds:>8.3f}s "
                f"{baseline / result.elapsed_seconds:>7.2f}x "
                f"{result.traffic_gb:>8.2f}G"
            )
        print()
    print("At 200% the discard systems approach the paper's ~4x speedup.")


if __name__ == "__main__":
    main()
