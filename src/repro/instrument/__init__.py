"""Driver-level instrumentation.

The paper's evaluation is built on instrumentation inside the UVM driver:
PCIe traffic counters per direction (Tables 4/6/8, Figures 3/5), fault and
mapping counters, and the redundant-memory-transfer characterization of
Figure 3.  This package is the simulated equivalent: every migration,
eviction and prefetch flows through a :class:`TrafficRecorder`, and the
:class:`RmtClassifier` resolves each transfer to *useful* or *redundant*
based on what the program subsequently does with the moved data.

On top of the aggregates, :mod:`repro.instrument.trace` records a
span-based timeline of simulated time (exported as Chrome trace-event
JSON for Perfetto) and :mod:`repro.instrument.metrics` collects
time-series gauges and histograms — see docs/OBSERVABILITY.md.
"""

from repro.instrument.counters import Counters
from repro.instrument.metrics import (
    EngineMonitorSampler,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.instrument.rmt import RmtClassifier, TransferFate
from repro.instrument.trace import (
    NULL_TRACER,
    NullTracer,
    TraceConfig,
    Tracer,
    merge_chrome_traces,
    validate_chrome_trace,
)
from repro.instrument.traffic import TrafficRecorder, TransferReason, TransferRecord

__all__ = [
    "Counters",
    "EngineMonitorSampler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RmtClassifier",
    "TraceConfig",
    "Tracer",
    "TransferFate",
    "TrafficRecorder",
    "TransferReason",
    "TransferRecord",
    "merge_chrome_traces",
    "validate_chrome_trace",
]
