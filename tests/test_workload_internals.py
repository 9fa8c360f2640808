"""Workload internals: program structure details not covered elsewhere."""

import pytest

from repro.cuda.device import rtx_3080ti
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.fir import FirConfig, FirWorkload
from repro.workloads.radix_sort import RadixSortConfig, RadixSortWorkload

SCALE = 1 / 32
GPU = rtx_3080ti().scaled(SCALE)


def run(workload, system, ratio):
    return run_uvm_experiment(workload.plan(system, ratio, GPU, pcie_gen4))


class TestFirInternals:
    def test_windows_discarded_exactly_once(self):
        workload = FirWorkload(FirConfig().scaled(SCALE))
        result = run(workload, System.UVM_DISCARD, 2.0)
        window_blocks = workload.config.window_bytes // (2 * 1024 * 1024)
        expected = window_blocks * workload.config.num_windows
        assert result.counters["discarded_blocks"] == expected

    def test_uvm_opt_never_discards(self):
        workload = FirWorkload(FirConfig().scaled(SCALE))
        result = run(workload, System.UVM_OPT, 2.0)
        assert result.counters.get("discarded_blocks", 0) == 0

    def test_prefetch_overlaps_compute(self):
        """The two-stream structure overlaps kernels with the next
        window's H2D prefetch — visible in the trace."""
        from repro.harness.pipeline import simulate
        from repro.instrument.trace import Tracer

        workload = FirWorkload(FirConfig().scaled(SCALE))
        tracer = Tracer()
        simulate(workload.plan(System.UVM_OPT, 0.99, GPU, pcie_gen4), tracer=tracer)
        compute_track = f"{GPU.name}/compute"
        compute_busy = tracer.busy_seconds(compute_track)
        overlap = tracer.overlap_seconds(compute_track, "link/h2d")
        assert compute_busy > 0
        # Most of the compute ran while a transfer was in flight.
        assert overlap > 0.5 * compute_busy

    def test_no_gpu_faults_with_proper_gating(self):
        """Kernels wait for their window's prefetch: no fault batches at
        <100%."""
        workload = FirWorkload(FirConfig().scaled(SCALE))
        result = run(workload, System.UVM_OPT, 0.99)
        assert result.counters.get("gpu_fault_batches", 0) == 0


class TestRadixInternals:
    def test_prefetch_policy_follows_oversubscription(self):
        workload = RadixSortWorkload(RadixSortConfig().scaled(SCALE))
        fits = run(workload, System.UVM_OPT, 0.99)
        oversub = run(workload, System.UVM_OPT, 2.0)
        # §7.3: prefetches only when not oversubscribed.
        assert fits.counters.get("prefetched_blocks", 0) > 0
        assert oversub.counters.get("prefetched_blocks", 0) == 0

    def test_forced_prefetch_override(self):
        workload = RadixSortWorkload(RadixSortConfig(prefetch=True).scaled(SCALE))
        forced = run(workload, System.UVM_OPT, 2.0)
        assert forced.counters.get("prefetched_blocks", 0) > 0

    def test_lazy_system_identical_when_no_prefetch(self):
        """At >=200% no prefetches exist to pair with, so the lazy system
        degenerates to eager — byte- and time-identical (§7.1)."""
        workload = RadixSortWorkload(RadixSortConfig().scaled(SCALE))
        eager = run(workload, System.UVM_DISCARD, 2.0)
        lazy = run(workload, System.UVM_DISCARD_LAZY, 2.0)
        assert eager.traffic_gb == lazy.traffic_gb
        assert eager.elapsed_seconds == pytest.approx(
            lazy.elapsed_seconds, rel=1e-9
        )

    def test_iterations_scale_work(self):
        short = run(
            RadixSortWorkload(RadixSortConfig(iterations=2).scaled(SCALE)),
            System.UVM_OPT,
            2.0,
        )
        long = run(
            RadixSortWorkload(RadixSortConfig(iterations=8).scaled(SCALE)),
            System.UVM_OPT,
            2.0,
        )
        assert long.traffic_gb > 2.5 * short.traffic_gb
