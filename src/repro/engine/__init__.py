"""Discrete-event simulation engine.

A minimal, dependency-free process-based simulation kernel in the style of
SimPy.  Simulation *processes* are Python generators that ``yield``
awaitable primitives:

- :class:`~repro.engine.core.Timeout` — advance the virtual clock,
- :class:`~repro.engine.core.Event` — wait until another process triggers,
- :class:`~repro.engine.core.Process` — wait for a child process to finish,
- :class:`~repro.engine.resources.Request` — acquire a slot of a FIFO
  :class:`~repro.engine.resources.Resource`, the engine's one shared
  primitive.

Every scheduled event carries a ``(time, sequence)`` key.  Future events
wait in per-timestamp FIFO buckets ordered by a heap of their distinct
times, zero-delay events in a FIFO now-queue, and one run loop pops both
in exact key order, so runs are fully deterministic: identical inputs
produce identical traces, which the test suite relies on heavily.

A process may move the clock in place of a timeout that would be the
next event processed, with itself as the only waiter:
:meth:`~repro.engine.core.Environment.horizon` is the latest instant it
may move to (−∞ when it may not), a wait of ``d`` advances in place
exactly when ``now < now + d <= horizon()``
(:meth:`~repro.engine.core.Environment.advance`), and a run of such
waits is committed at once with
:meth:`~repro.engine.core.Environment.advance_to`.  Either way the
sequence numbers and event counts the timeouts would have taken are
used up, so the ``(time, sequence)`` schedule does not change.
"""

from repro.engine.core import Environment, Event, Process, Timeout
from repro.engine.resources import Resource

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Resource",
]
