"""Core of the discrete-event engine: environment, events, processes.

The design follows the classic event-loop pattern: every scheduled event
carries a ``(time, sequence)`` key, and :meth:`Environment.run` processes
events in key order, resuming the generator-based processes waiting on
each.  The ``sequence`` counter breaks ties deterministically (FIFO among
simultaneous events).

Hot-path notes
--------------
This module is the innermost loop of every simulation, so it trades a
little uniformity for speed:

- every event class declares ``__slots__`` (no per-event ``__dict__``),
- :meth:`Environment.run` is the only place events are popped and
  dispatched: one inlined loop serves all three ``until`` modes, so the
  pop rule, the callback dispatch and the recycling are written once,
- :class:`Process` resumes through already-processed targets
  *synchronously* instead of scheduling a proxy event per yield, so a
  chain of satisfied dependencies costs zero scheduling traffic,
- :meth:`Environment.timeout` recycles :class:`Timeout` objects through a
  small pool.  A timeout is recycled only when the run loop can prove it
  is unreferenced (``sys.getrefcount``), so holding on to a timeout and
  inspecting it later remains safe,
- plain :class:`Event` objects are recycled through a second arena under
  the same refcount proof, so the succeed/resume churn of stores and
  resources allocates nothing in steady state,
- a finished :class:`Process` drops its bound ``_resume`` callback, the
  one reference cycle each process forms, so reference counting frees it
  and the cyclic collector (suspended for a whole pipeline run, see
  :func:`repro.harness.pipeline.simulate`) never has to,
- future events live in per-timestamp FIFO buckets, and a heap orders
  only the distinct timestamps,
- zero-delay events (the majority under contention: grants, store gets,
  process bootstraps and completions) bypass the buckets entirely via a
  FIFO *now-queue*.  Ordering is unchanged: every event still carries a
  global sequence number, and the pop rule compares ``(time, seq)``
  across both structures, so the processed order is bit-identical to a
  single-heap engine — the now-queue only removes the O(log n) sift
  cost from events that could never sort before the current time.
  ``tests/test_engine_reference.py`` checks exactly that against a
  plain one-heap engine,
- :meth:`Environment.advance` moves the clock in place of a timeout
  that would be the next event processed, with the caller its only
  waiter.  No :class:`Timeout` is built, scheduled or popped, and the
  caller's generator chain does not suspend and resume; the sequence
  number and the event count the timeout would have taken are used up,
  so the ``(time, seq)`` schedule is unchanged.  The rule is
  :meth:`Environment.horizon`'s: a wait of ``d`` advances in place
  exactly when ``now < now + d <= horizon()``.  The horizon is −∞
  outside :meth:`Environment.run`, when the event being dispatched has
  a callback besides the caller or is the sentinel of
  ``run(until=event)``, while the now-queue holds an event, and while a
  monitor is installed (chaos, the online validator and metric sampling
  keep the timeout).  Otherwise it is the run's deadline, or the float
  just below the earliest scheduled time if that comes first.  The
  driver's hot waits call ``if not env.advance(d): yield
  env.timeout(d)``; under oversubscription nearly every wait qualifies.
  A caller with several such waits in a row, where nothing it does in
  between schedules an event, may sum them on a local clock against one
  ``horizon()`` read and commit them with one
  :meth:`Environment.advance_to`.

Both arenas live on the :class:`Environment` and are ordinary pickled
state, so a forked :class:`~repro.engine.snapshot.EngineSnapshot`
inherits warm pools and keeps reusing them.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop, heappush
from math import nextafter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError, SnapshotError


class _PendingType:
    """Sentinel distinguishing "no value yet" from a legitimate ``None``.

    A dedicated class (instead of a bare ``object()``) so that pickles
    of snapshotted event graphs (the serialize-once blob transport,
    :meth:`repro.engine.snapshot.EngineSnapshot.to_blob`) preserve
    *identity*: ``is`` checks against the sentinel must keep working in
    a forked run.  ``copy.deepcopy`` goes through the same
    ``__reduce__`` and returns the singleton too.
    """

    __slots__ = ()

    def __reduce__(self):
        # Unpickle to the module-level singleton, never a new instance.
        return (_restore_pending, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pending>"


def _restore_pending() -> "_PendingType":
    """Pickle target restoring the :data:`_PENDING` singleton."""
    return _PENDING


_PENDING = _PendingType()

#: Upper bound on the per-environment pool of recycled Timeout objects.
_TIMEOUT_POOL_LIMIT = 128

#: Upper bound on the per-environment arena of recycled plain Events.
_EVENT_POOL_LIMIT = 256

_INF = float("inf")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules it for processing, after which every waiting process is
    resumed with the event's value (or has the exception thrown into it).
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled for processing."""
        return self._scheduled

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value read before the event fired")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (no exception)."""
        return self._scheduled and self._exception is None

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, waking waiters with ``value``."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        self._value = value
        self._scheduled = True
        # Inlined Environment._schedule(delay=0): firing an event is the
        # hottest scheduling site, and a zero delay always lands on the
        # now-queue.
        env = self.env
        sequence = env._sequence
        env._sequence = sequence + 1
        env._now_queue.append((sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception, which propagates to waiters."""
        if self._scheduled:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self._value = exception
        self._scheduled = True
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ — timeouts are the most-allocated event
        # kind, and they are born already triggered.
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._scheduled = True
        self.delay = delay
        env._schedule(self, delay=delay)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an :class:`Event` that fires when the generator
    returns, carrying the generator's return value; this is what makes
    ``yield env.process(child())`` work for fork/join composition.
    """

    __slots__ = ("_generator", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        self._generator = generator
        # One bound method until the process finishes: every wait appends
        # this callback, and binding it once avoids a fresh bound-method
        # allocation per yield.  It refers back to the process, so each
        # finishing path in _resume drops it to break that cycle.
        self._resume_cb = self._resume
        # Bootstrap: resume the generator at the current simulation time.
        # The bootstrap event comes from the arena — it dies as soon as
        # the resume runs, so it is the single most-recycled event kind.
        initial = env.event()
        initial._value = None
        initial._scheduled = True
        initial.callbacks.append(self._resume_cb)
        env._schedule(initial)

    @property
    def is_alive(self) -> bool:
        return not self._scheduled

    # Snapshot support: the serialize-once transport
    # (EngineSnapshot.to_blob) pickles the quiescent graph directly.
    # Finished processes linger as stream tails and event values; their
    # pickles keep the outcome but shed the exhausted generator, and a
    # live process refuses with SnapshotError instead of pickle's opaque
    # TypeError.  copy.deepcopy follows the same protocol.

    def __getstate__(self):
        if self.callbacks is not None:
            raise SnapshotError(
                "cannot pickle a live process; snapshots are only "
                "legal at quiescence (empty event heap, every process "
                "finished)"
            )
        return (self.env, self._value, self._exception, self._scheduled)

    def __setstate__(self, state) -> None:
        self.env, self._value, self._exception, self._scheduled = state
        self.callbacks = None
        self._generator = None
        self._resume_cb = None

    def _resume(self, event: Event) -> None:
        generator = self._generator
        # Resume the generator, following chains of already-processed
        # targets synchronously: yielding a satisfied event costs one
        # ``send`` and no heap traffic (the previous design scheduled a
        # proxy event per such yield).
        while True:
            try:
                if event._exception is not None:
                    target = generator.throw(event._exception)
                else:
                    target = generator.send(event._value)
            except StopIteration as stop:
                self._value = getattr(stop, "value", None)
                self._scheduled = True
                self._resume_cb = None
                env = self.env
                sequence = env._sequence
                env._sequence = sequence + 1
                env._now_queue.append((sequence, self))
                return
            except Exception as exc:
                if not self.callbacks:
                    raise
                self._exception = exc
                self._value = exc
                self._scheduled = True
                self._resume_cb = None
                self.env._schedule(self)
                return
            # Duck-typed Event check: one attribute load covers both the
            # "is this an Event" validation (anything else has no
            # ``callbacks`` and raises below) and the processed test.
            try:
                target_callbacks = target.callbacks
            except AttributeError:
                raise SimulationError(
                    f"process yielded {target!r}; processes must yield "
                    "Event instances"
                ) from None
            if target_callbacks is None:
                # Already processed: resume with its outcome immediately.
                event = target
                continue
            target_callbacks.append(self._resume_cb)
            return


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.callbacks is None:
                self._on_child(child)
            else:
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._scheduled:
            return
        if child._exception is not None:
            self.fail(child._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class Environment:
    """The simulation environment: virtual clock plus the event queues."""

    __slots__ = ("_now", "_heap", "_buckets", "_now_queue", "_sequence",
                 "_timeout_pool", "_event_pool", "_monitors", "_event_count",
                 "_sole_waiter", "_deadline")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Future events live in per-timestamp FIFO buckets; the heap
        # orders only the *unique* timestamps.  Plain-float heap
        # comparisons are ~3x cheaper than the classic (time, seq, event)
        # tuple compares, and simultaneous events (very common: every
        # config cost is a fixed constant, so co-scheduled processes
        # collide on the same float) skip the sift entirely.  Within one
        # bucket FIFO order *is* sequence order, because sequences are
        # handed out monotonically.
        self._heap: List[float] = []
        self._buckets: Dict[float, List[Tuple[int, Event]]] = {}
        # Zero-delay events in FIFO (= sequence) order.  Every entry was
        # scheduled at the *current* simulation time, and the pop rule
        # drains the queue before the clock may advance, so each entry's
        # implicit timestamp is always ``self._now``.
        self._now_queue: Deque[Tuple[int, Event]] = deque()
        self._sequence = 0
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        # Per-event observers, called after each processed event with
        # (env, event_count).  Kept as a plain list whose *binding* is
        # replaced on mutation, so an in-flight iteration in the run loop
        # never sees a half-updated list.  Empty in the common case: the
        # loop pays one truthiness test per event.
        self._monitors: List[Callable[["Environment", int], None]] = []
        self._event_count = 0
        # What horizon() reads of the run loop: whether the event being
        # dispatched has exactly one callback and is not the sentinel of
        # run(until=event), and the current run's deadline.  Outside
        # run() both make the horizon -inf.
        self._sole_waiter = False
        self._deadline = -_INF

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Events processed so far — the monotone injection/cadence clock
        used by the chaos injector and the online validator.  Advances by
        exactly one per processed event, so with a fixed program and a
        fixed seed it is a deterministic schedule coordinate."""
        return self._event_count

    def add_monitor(
        self, monitor: Callable[["Environment", int], None]
    ) -> Callable[["Environment", int], None]:
        """Register a per-event observer; returns it for later removal.

        Monitors run after every processed event, in registration order,
        at the then-current simulation time.  They may schedule new
        events/processes (the chaos injector does) but must not raise
        unless the whole run should abort (the strict validator does).
        """
        self._monitors = self._monitors + [monitor]
        return monitor

    def remove_monitor(
        self, monitor: Callable[["Environment", int], None]
    ) -> None:
        """Unregister a monitor; no-op when it is not installed."""
        self._monitors = [m for m in self._monitors if m is not monitor]

    @property
    def quiescent(self) -> bool:
        """Whether no event is scheduled (nothing can happen without
        outside input) — the only state a snapshot may capture."""
        return not self._heap and not self._now_queue

    @property
    def heap_depth(self) -> int:
        """Number of scheduled events — the engine's backlog gauge,
        sampled by the metrics monitor."""
        return len(self._now_queue) + sum(map(len, self._buckets.values()))

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay == 0.0:
            self._now_queue.append((sequence, event))
            return
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(sequence, event)]
            heappush(self._heap, time)
        else:
            bucket.append((sequence, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            timeout = pool.pop()
            # Recycled entries carry a cleared callbacks list already.
            timeout._value = value
            timeout._exception = None
            timeout._scheduled = True
            timeout.delay = delay
            # Inlined _schedule: timeouts are the most-scheduled event.
            sequence = self._sequence
            self._sequence = sequence + 1
            if delay == 0.0:
                self._now_queue.append((sequence, timeout))
            else:
                time = self._now + delay
                bucket = self._buckets.get(time)
                if bucket is None:
                    self._buckets[time] = [(sequence, timeout)]
                    heappush(self._heap, time)
                else:
                    bucket.append((sequence, timeout))
            return timeout
        return Timeout(self, delay, value)

    def horizon(self) -> float:
        """The latest instant to which the running process may move the
        clock in place, or −∞ when it may not.

        That is the case when a timeout ending there would be the next
        event the run loop processes and the caller its only waiter: the
        call comes from inside :meth:`run`, the event being dispatched
        has the caller as its one callback and is not the sentinel of
        ``run(until=event)``, the now-queue is empty and no monitor is
        installed.  The horizon is then the run's deadline, or the float
        just below the earliest scheduled time when that comes first: an
        event already due at exactly that time is older, and goes first.

        It stays put while the caller schedules no event, so a run of
        waits may be summed against one reading and committed with
        :meth:`advance_to`.
        """
        if not self._sole_waiter or self._now_queue or self._monitors:
            return -_INF
        heap = self._heap
        if heap and heap[0] <= self._deadline:
            return nextafter(heap[0], -_INF)
        return self._deadline

    def advance(self, delay: float) -> bool:
        """Move the clock by ``delay`` in place of a timeout, when no
        one could tell the difference; return whether it did.

        It does exactly when ``now < now + delay <= horizon()`` (see
        :meth:`horizon`).  The clock then moves, and the sequence number
        and the event count that timeout would have taken are used up,
        so the ``(time, seq)`` schedule stays the one the timeout gives.

        Only a process that yields ``timeout(delay)`` right away when
        this returns ``False`` may call it::

            if not env.advance(delay):
                yield env.timeout(delay)
        """
        now = self._now
        time = now + delay
        if now < time <= self.horizon():
            self.advance_to(time, 1)
            return True
        return False

    def advance_to(self, time: float, moves: int) -> None:
        """Commit ``moves`` waits that advanced in place, the last ending
        at ``time``: the clock moves there, and the sequence numbers and
        event counts their timeouts would have taken are used up.

        Each wait must have met :meth:`advance`'s rule on the clock the
        waits before it left, against one :meth:`horizon` reading, with
        no event scheduled in between.
        """
        self._now = time
        self._sequence += moves
        self._event_count += moves

    def event(self) -> Event:
        """Create a fresh pending event (arena-recycled when possible)."""
        pool = self._event_pool
        if pool:
            # Recycled entries were reset on their way into the arena
            # (cleared callbacks list, pending value, no exception).
            event = pool.pop()
            event._scheduled = False
            return event
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queues drain, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain everything), a number (absolute
        simulation time, not before :attr:`now`; events at exactly that
        time still run, and the clock ends on it), or an :class:`Event`
        whose firing stops the run and whose value is returned.  Waiting
        on an event that nothing left scheduled can fire raises
        :class:`~repro.errors.SimulationError`.
        """
        heap = self._heap
        nowq = self._now_queue
        buckets = self._buckets
        pool = self._timeout_pool
        arena = self._event_pool
        getrefcount = sys.getrefcount
        pending = _PENDING
        sentinel = deadline = None
        if isinstance(until, Event):
            sentinel = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"run(until={deadline}) is before the current time "
                    f"{self._now}"
                )
        self._deadline = _INF if deadline is None else deadline
        try:
            while sentinel is None or sentinel.callbacks is not None:
                # The pop rule: a bucketed event goes first only when its
                # time has been reached *and* its sequence is older than
                # the now-queue head (whose implicit time is always
                # ``_now``), so the split representation pops in exact
                # (time, seq) order.  The sequence test decides when a
                # positive delay is too small to move the float clock:
                # that timeout lands on the current instant, behind
                # zero-delay events already queued there.
                if nowq and not (
                    heap
                    and heap[0] <= self._now
                    and buckets[heap[0]][0][0] < nowq[0][0]
                ):
                    event = nowq.popleft()[1]
                elif heap:
                    time = heap[0]
                    if deadline is not None and time > deadline:
                        break
                    if time < self._now:
                        raise SimulationError(
                            f"time went backwards: {time} < {self._now}"
                        )
                    bucket = buckets[time]
                    event = bucket.pop(0)[1]
                    if not bucket:
                        heappop(heap)
                        del buckets[time]
                    self._now = time
                elif sentinel is None:
                    break
                else:
                    raise SimulationError(
                        "simulation starved before the awaited event fired"
                    )
                callbacks = event.callbacks
                event.callbacks = None  # type: ignore[assignment]
                if len(callbacks) == 1:
                    self._sole_waiter = event is not sentinel
                    callbacks[0](event)
                else:
                    self._sole_waiter = False
                    for callback in callbacks:
                        callback(event)
                # Recycle events nobody references anymore: the only live
                # references are the loop variable and getrefcount's
                # argument, so reuse cannot be observed from outside.
                # Exact types only — subclasses (Process, Request, AllOf)
                # carry extra state and stay garbage-collected.
                cls = type(event)
                if cls is Timeout:
                    if (
                        len(pool) < _TIMEOUT_POOL_LIMIT
                        and getrefcount(event) == 2
                    ):
                        callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                elif cls is Event:
                    if (
                        len(arena) < _EVENT_POOL_LIMIT
                        and getrefcount(event) == 2
                    ):
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = pending
                        event._exception = None
                        arena.append(event)
                self._event_count += 1
                if self._monitors:
                    count = self._event_count
                    for monitor in self._monitors:
                        monitor(self, count)
        finally:
            self._sole_waiter = False
            self._deadline = -_INF
        if sentinel is not None:
            if sentinel._exception is not None:
                raise sentinel._exception
            return sentinel._value
        if deadline is not None:
            # Nothing is left at or before the deadline; the clock never
            # passes it, so this only moves time forward.
            self._now = deadline
        return None
