#!/usr/bin/env python3
"""Export a chrome://tracing timeline of a simulated training batch.

Trains one scaled VGG-16 batch under UVM with discard through the
experiment pipeline with a :class:`repro.Tracer` attached after the
setup prefix (as ``python -m repro trace`` does), and writes
``vgg16_trace.json`` —
load it in chrome://tracing or https://ui.perfetto.dev to see kernels on
the ``gpu0/compute`` track overlapping prefetches and eviction
write-backs on the ``link/h2d`` and ``link/d2h`` tracks, exactly like an
Nsight capture of the real system.  ``python -m repro trace --validate
vgg16_trace.json`` checks the file against the trace-event schema.

Run:  python examples/timeline_trace.py
"""

from __future__ import annotations

from repro import Tracer
from repro.cuda.device import rtx_3080ti
from repro.harness.pipeline import simulate
from repro.harness.systems import System
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, vgg16

SCALE = 1 / 16
BATCH = 125  # oversubscribed at this scale
OUTPUT = "vgg16_trace.json"


def main() -> None:
    network = vgg16().scaled(SCALE)
    trainer = DarknetTrainer(
        network, TrainerConfig(batch_size=BATCH, batches=2), System.UVM_DISCARD
    )
    tracer = Tracer()
    _result, runtime = simulate(
        trainer.plan(rtx_3080ti().scaled(SCALE), pcie_gen4), tracer=tracer
    )

    compute_track = f"{runtime.gpu.name}/compute"
    compute = tracer.busy_seconds(compute_track)
    h2d = tracer.busy_seconds("link/h2d")
    d2h = tracer.busy_seconds("link/d2h")
    overlap = tracer.overlap_seconds(compute_track, "link/h2d")
    print(f"trace records:      {len(tracer.events)}")
    print(f"compute busy:       {compute * 1e3:8.2f} ms")
    print(f"H2D link busy:      {h2d * 1e3:8.2f} ms")
    print(f"D2H link busy:      {d2h * 1e3:8.2f} ms")
    print(f"compute/H2D overlap:{overlap * 1e3:8.2f} ms (prefetch pipelining)")
    tracer.write(OUTPUT)
    print(f"\nwrote {OUTPUT} — open it in chrome://tracing")


if __name__ == "__main__":
    main()
