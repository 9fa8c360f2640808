"""Pin the engine schedule of whole simulations.

Every processed event bumps ``env.event_count`` and every scheduled one
takes a sequence number (``env._sequence``), so the two counters after
:func:`~repro.harness.pipeline.simulate` summarise the ``(time, seq)``
schedule of a run.  An engine shortcut that skips host work must leave
both exactly where a plain run puts them: ``repro profile`` reports
``sim_events`` from the sequence counter, and the chaos injector and the
online validator take their cadence from the event count.

The points are one oversubscribed micro and one DL training point under
each UVM system, at scale 1/32, which between them reach the fault,
eviction, zero-fill, migration, prefetch, discard and kernel-wave waits.
"""

from __future__ import annotations

import pytest

from repro.harness.pipeline import plan_for, simulate
from repro.harness.sweep import SweepPoint

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
