"""Traced execution of a single sweep point.

:func:`trace_point` is the harness entry behind ``python -m repro trace``
and the ``--trace`` flags on ``run``/``chaos``: it simulates one
:class:`~repro.harness.sweep.SweepPoint` with a
:class:`~repro.instrument.trace.Tracer` installed and returns both the
usual :class:`~repro.harness.results.ExperimentResult` and the tracer
holding the timeline.

The run goes through :func:`~repro.harness.pipeline.simulate`, which
installs the tracer *after* the setup prefix — exactly where a chaos
injector attaches on a snapshot fork — so a cold traced run and a
``simulate(plan, snapshot, tracer)`` run of the same point produce
byte-identical trace JSON and equal ``trace_digest`` values (pinned by
``tests/test_trace.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.harness.results import ExperimentResult
from repro.harness.systems import System
from repro.instrument.trace import TraceConfig, Tracer


def traced_run(
    point,
    trace_config: Optional[TraceConfig] = None,
) -> Tuple[Optional[ExperimentResult], Tracer, Optional[object]]:
    """Simulate ``point`` with tracing enabled, keeping the runtime.

    Returns ``(result, tracer, runtime)``; ``result`` is ``None`` on the
    paper's No-UVM-style OOM (``runtime`` is ``None`` if the *prefix*
    OOMed).  The runtime gives post-run analysis access to retained
    transfer records and the RMT classifier (``repro.analysis``).

    Raises :class:`~repro.errors.ConfigurationError` for No-UVM points,
    which have no driver to trace.
    """
    from repro.harness.pipeline import plan_for, simulate

    if System(point.system) is System.NO_UVM:
        raise ConfigurationError(
            f"{point.label}: tracing needs a UVM system (No-UVM has no driver)"
        )
    tracer = Tracer(trace_config or TraceConfig())
    result, runtime = simulate(plan_for(point), tracer=tracer)
    return result, tracer, runtime


def trace_point(
    point,
    trace_config: Optional[TraceConfig] = None,
) -> Tuple[Optional[ExperimentResult], Tracer]:
    """Simulate ``point`` with tracing enabled (see :func:`traced_run`)."""
    result, tracer, _ = traced_run(point, trace_config)
    return result, tracer
