"""Tables 5 and 6: Radix-sort normalized runtime and PCIe traffic.

Paper shape asserted: at <100 % the eager `UvmDiscard` pays a visible
unmap/remap penalty that `UvmDiscardLazy` erases; once oversubscribed,
irregular-access thrashing dominates, both discard variants give a
modest, identical win, and the benefit shrinks as the ratio grows.
"""

from __future__ import annotations

import pytest
from conftest import bench_scale, run_once

from repro.cuda.device import rtx_3080ti
from repro.harness.results import ResultTable
from repro.harness.runner import ratio_label, run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen3, pcie_gen4
from repro.workloads.radix_sort import RadixSortConfig, RadixSortWorkload

RATIOS = (0.99, 2.0, 3.0, 4.0)
SYSTEMS = (System.UVM_OPT, System.UVM_DISCARD, System.UVM_DISCARD_LAZY)


def run_radix(link_factory):
    scale = bench_scale(0.125)
    workload = RadixSortWorkload(RadixSortConfig().scaled(scale))
    gpu = rtx_3080ti().scaled(scale)
    table = ResultTable("Radix-sort", [ratio_label(r) for r in RATIOS])
    for ratio in RATIOS:
        for system in SYSTEMS:
            plan = workload.plan(system, ratio, gpu, link_factory)
            table.add(run_uvm_experiment(plan))
    return table


@pytest.mark.parametrize(
    "link_name,link_factory", [("PCIe-3", pcie_gen3), ("PCIe-4", pcie_gen4)]
)
def test_table5_6_radix(benchmark, save_table, link_name, link_factory):
    table = run_once(benchmark, lambda: run_radix(link_factory))

    save_table(
        f"table5_6_radix_{link_name.lower()}",
        f"Table 5 (Radix-sort normalized runtime, {link_name})\n"
        + table.render("normalized_runtime", baseline=System.UVM_OPT.value)
        + f"\n\nTable 6 (Radix-sort PCIe traffic GB, {link_name})\n"
        + table.render("traffic_gb"),
    )

    opt = System.UVM_OPT.value
    eager = System.UVM_DISCARD.value
    lazy = System.UVM_DISCARD_LAZY.value
    # <100%: eager pays for its unmapping; lazy does not (1.21 vs 1.00).
    assert table.normalized_runtime(eager, "<100%", opt) > 1.04
    assert table.normalized_runtime(lazy, "<100%", opt) < 1.03
    assert table.normalized_runtime(lazy, "<100%", opt) < table.normalized_runtime(
        eager, "<100%", opt
    )
    # Oversubscribed: both win, identically (no prefetches → all eager).
    for config in ("200%", "300%", "400%"):
        assert table.normalized_runtime(eager, config, opt) < 1.0
        assert (
            abs(
                table.normalized_runtime(eager, config, opt)
                - table.normalized_runtime(lazy, config, opt)
            )
            < 0.02
        )
    # Thrashing dominates: the relative traffic saving shrinks with ratio
    # (paper: 19% at 200% down to 5% at 400%).
    def saving(config):
        base = table.get(opt, config).traffic_gb
        return (base - table.get(eager, config).traffic_gb) / base

    assert saving("200%") > saving("400%") > 0
    # Oversubscription explodes traffic vs <100% (5 GB → 300+ GB).
    assert table.get(opt, "200%").traffic_gb > 10 * table.get(opt, "<100%").traffic_gb
    benchmark.extra_info["traffic_gb"] = {
        s.value: [table.get(s.value, ratio_label(r)).traffic_gb for r in RATIOS]
        for s in SYSTEMS
    }
