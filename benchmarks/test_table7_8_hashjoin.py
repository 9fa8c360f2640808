"""Tables 7 and 8: Hash-join normalized runtime and PCIe traffic.

Paper shape asserted: the headline win at 200 % (paper: 0.24 normalized,
85.8 % of traffic eliminated), diminishing at 300/400 % as even live
data starts to thrash; small eager overhead at <100 % that lazy only
partially removes (not every discard site is prefetch-paired here).
"""

from __future__ import annotations

import pytest
from conftest import bench_scale, run_once

from repro.cuda.device import rtx_3080ti
from repro.harness.results import ResultTable
from repro.harness.runner import ratio_label, run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen3, pcie_gen4
from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload

RATIOS = (0.99, 2.0, 3.0, 4.0)
SYSTEMS = (System.UVM_OPT, System.UVM_DISCARD, System.UVM_DISCARD_LAZY)


def run_hash_join(link_factory):
    scale = bench_scale(0.25)
    workload = HashJoinWorkload(HashJoinConfig().scaled(scale))
    gpu = rtx_3080ti().scaled(scale)
    table = ResultTable("Hash-join", [ratio_label(r) for r in RATIOS])
    for ratio in RATIOS:
        for system in SYSTEMS:
            plan = workload.plan(system, ratio, gpu, link_factory)
            table.add(run_uvm_experiment(plan))
    return table


@pytest.mark.parametrize(
    "link_name,link_factory", [("PCIe-3", pcie_gen3), ("PCIe-4", pcie_gen4)]
)
def test_table7_8_hashjoin(benchmark, save_table, link_name, link_factory):
    table = run_once(benchmark, lambda: run_hash_join(link_factory))

    save_table(
        f"table7_8_hashjoin_{link_name.lower()}",
        f"Table 7 (Hash-join normalized runtime, {link_name})\n"
        + table.render("normalized_runtime", baseline=System.UVM_OPT.value)
        + f"\n\nTable 8 (Hash-join PCIe traffic GB, {link_name})\n"
        + table.render("traffic_gb"),
    )

    opt = System.UVM_OPT.value
    eager = System.UVM_DISCARD.value
    lazy = System.UVM_DISCARD_LAZY.value
    # <100%: small eager overhead, lazy alleviates but not to zero
    # (paper: 1.05/1.09 vs 1.02/1.04).
    assert 1.0 < table.normalized_runtime(eager, "<100%", opt) < 1.2
    assert (
        table.normalized_runtime(lazy, "<100%", opt)
        <= table.normalized_runtime(eager, "<100%", opt)
    )
    # 200%: the big win (paper: ~4x speedup, ~86% traffic eliminated).
    assert table.normalized_runtime(eager, "200%", opt) < 0.45
    traffic_cut = 1 - (
        table.get(eager, "200%").traffic_gb / table.get(opt, "200%").traffic_gb
    )
    assert traffic_cut > 0.6
    # Gains diminish with the ratio (0.24 → 0.51 → 0.86 in the paper).
    assert (
        table.normalized_runtime(eager, "200%", opt)
        < table.normalized_runtime(eager, "300%", opt)
        < table.normalized_runtime(eager, "400%", opt)
        < 1.0
    )
    benchmark.extra_info["traffic_gb"] = {
        s.value: [table.get(s.value, ratio_label(r)).traffic_gb for r in RATIOS]
        for s in SYSTEMS
    }
