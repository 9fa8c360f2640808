"""Pin the engine schedule of whole simulations.

Every processed event bumps ``env.event_count`` and every scheduled one
takes a sequence number (``env._sequence``), so the two counters after
:func:`~repro.harness.pipeline.simulate` summarise the ``(time, seq)``
schedule of a run.  An engine shortcut that skips host work must leave
both exactly where a plain run puts them: the chaos injector and the
online validator take their cadence from the event count, and the
work counts of ``benchmarks/e2e`` read it too.

The points are one oversubscribed micro and one DL training point under
each UVM system, at scale 1/32, which between them reach the fault,
eviction, zero-fill, migration, prefetch, discard and kernel-wave waits.
Two smaller programs pin the same counters below the pipeline: an
engine-only churn of timeouts and contended resource hand-offs, and a
driver serviced by round-robin fault batches at 2x oversubscription,
so every batch migrates and evicts.
"""

from __future__ import annotations

import pytest

from repro.driver.driver import UvmDriver
from repro.driver.va_block import VaBlock
from repro.engine import Environment, Resource
from repro.harness.pipeline import plan_for, simulate
from repro.harness.sweep import SweepPoint
from repro.interconnect import pcie_gen4
from repro.units import BIG_PAGE

#: (workload, system, point keywords) -> (event_count, _sequence).
SCHEDULES = {
    ("radix", "UVM-opt"): (10633, 10633),
    ("radix", "UvmDiscard"): (8830, 8830),
    ("radix", "UvmDiscardLazy"): (8830, 8830),
    ("dl:vgg16", "UVM-opt"): (4326, 4326),
    ("dl:vgg16", "UvmDiscard"): (3860, 3860),
    ("dl:vgg16", "UvmDiscardLazy"): (4180, 4180),
}

_SIZE = {"radix": {"ratio": 2.0}, "dl:vgg16": {"batch_size": 125}}


@pytest.mark.parametrize(
    "workload,system", sorted(SCHEDULES), ids="/".join
)
def test_event_count_and_sequence_are_pinned(workload, system):
    point = SweepPoint(
        workload=workload, system=system, scale=0.03125, **_SIZE[workload]
    )
    result, runtime = simulate(plan_for(point))
    assert result is not None
    env = runtime.env
    assert (env.event_count, env._sequence) == SCHEDULES[workload, system]


def test_engine_churn_schedule_is_pinned():
    """50 processes x 400 rounds of timeouts and a 4-slot resource, no
    driver: recycled timeouts, ``try_acquire`` grants and the resource's
    contended grant queue."""
    env = Environment()
    resource = Resource(env, capacity=4)

    def worker():
        for _ in range(400):
            yield env.timeout(1e-6)
            request = resource.try_acquire()
            if request is None:
                request = resource.request()
                yield request
            yield env.timeout(1e-7)
            resource.release(request)

    for _ in range(50):
        env.process(worker())
    env.run()
    assert (env.event_count, env._sequence) == (60096, 60096)
    assert env.now == 0.0005010000000000044


def test_fault_storm_is_pinned():
    """128 blocks through a 64-frame GPU in fault batches of 16, six
    sweeps: the first four batches fill the GPU, every later one writes
    16 blocks back, and from the second sweep on each also migrates its
    own 16 in (704 writebacks + 640 migrations of 2 MiB)."""
    env = Environment()
    driver = UvmDriver(env, pcie_gen4())
    driver.register_gpu("gpu0", 64 * BIG_PAGE)
    blocks = [VaBlock(i, BIG_PAGE) for i in range(128)]
    driver.register_blocks(blocks)

    def storm():
        for _ in range(6):
            for start in range(0, len(blocks), 16):
                yield from driver.handle_gpu_faults(
                    "gpu0", blocks[start : start + 16]
                )

    env.process(storm())
    env.run()
    driver.finalize()
    assert (env.event_count, env._sequence) == (2250, 2250)
    assert driver.traffic.total_bytes == 2_818_572_288 == 1344 * BIG_PAGE
    assert driver.counters[driver.counters.GPU_FAULT_BATCHES] == 48
