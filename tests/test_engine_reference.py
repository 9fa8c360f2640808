"""Differential test: the engine against a plain reference engine.

:mod:`repro.engine.core` takes shortcuts for speed — a now-queue beside
per-time buckets, synchronous continuation through processed events,
try_acquire grants that schedule nothing, and Timeout/Event objects
recycled under a refcount proof.  None of them may change what a
program observes.  This module keeps a deliberately plain engine (one
``heapq`` of ``(time, sequence, event)``, no queues beside it, no pools,
no inlined paths) and has Hypothesis run small random programs on both,
comparing every resume's time and value, the per-event monitor ticks,
the final clock, the event count and any error.

The reference keeps the two rules the engine documents as semantics
rather than as shortcuts: a process that yields an already-processed
event continues at once, and ``try_acquire`` grants a slot
synchronously or returns ``None``.

The example count comes from the active Hypothesis profile; CI runs
this module again under the larger ``ci`` profile (``tests/conftest.py``).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Environment, Resource
from repro.errors import SimulationError

_PENDING = object()
_STARVED = "simulation starved before the awaited event fired"


class RefEvent:
    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self.value = _PENDING
        self.exception = None
        self.triggered = False

    def succeed(self, value=None):
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self.env.schedule(self)
        return self

    def fail(self, exception):
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = self.exception = exception
        self.env.schedule(self)
        return self


class RefTimeout(RefEvent):
    def __init__(self, env, delay, value=None):
        super().__init__(env)
        self.triggered = True
        self.value = value
        env.schedule(self, delay)


class RefProcess(RefEvent):
    def __init__(self, env, generator):
        super().__init__(env)
        self.generator = generator
        start = RefEvent(env)
        start.callbacks.append(self.resume)
        start.succeed()

    def resume(self, event):
        while True:
            try:
                if event.exception is not None:
                    target = self.generator.throw(event.exception)
                else:
                    target = self.generator.send(event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as exc:
                if not self.callbacks:
                    raise
                self.fail(exc)
                return
            if target.callbacks is None:
                event = target  # already processed: continue at once
                continue
            target.callbacks.append(self.resume)
            return


class RefAllOf(RefEvent):
    def __init__(self, env, events):
        super().__init__(env)
        self.children = list(events)
        self.remaining = len(self.children)
        if not self.children:
            self.succeed([])
        for child in self.children:
            if child.callbacks is None:
                self.on_child(child)
            else:
                child.callbacks.append(self.on_child)

    def on_child(self, child):
        if self.triggered:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self.remaining -= 1
        if self.remaining == 0:
            self.succeed([c.value for c in self.children])


class RefResource:
    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self.queue = deque()
        self.users = []

    def request(self):
        request = RefEvent(self.env)
        self.queue.append(request)
        self.grant()
        return request

    def try_acquire(self):
        if self.queue or len(self.users) >= self.capacity:
            return None
        request = RefEvent(self.env)
        request.callbacks = None  # born processed: yielding it continues
        request.triggered = True
        request.value = request
        self.users.append(request)
        return request

    def release(self, request):
        self.users.remove(request)
        self.grant()

    def grant(self):
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed(request)


class RefEnvironment:
    def __init__(self, initial_time=0.0):
        self.now = initial_time
        self.event_count = 0
        self.queue = []
        self.sequence = 0
        self.monitors = []

    def schedule(self, event, delay=0.0):
        heappush(self.queue, (self.now + delay, self.sequence, event))
        self.sequence += 1

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        return RefTimeout(self, delay, value)

    def process(self, generator):
        return RefProcess(self, generator)

    def all_of(self, events):
        return RefAllOf(self, events)

    def add_monitor(self, monitor):
        self.monitors.append(monitor)

    def run(self, until=None):
        sentinel = until if isinstance(until, RefEvent) else None
        deadline = None
        if until is not None and sentinel is None:
            deadline = float(until)
            if deadline < self.now:
                raise ValueError(
                    f"run(until={deadline}) is before the current time "
                    f"{self.now}"
                )
        while sentinel is None or sentinel.callbacks is not None:
            if not self.queue:
                if sentinel is None:
                    break
                raise SimulationError(_STARVED)
            if deadline is not None and self.queue[0][0] > deadline:
                break
            self.now, _, event = heappop(self.queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            self.event_count += 1
            for monitor in self.monitors:
                monitor(self, self.event_count)
        if sentinel is not None:
            if sentinel.exception is not None:
                raise sentinel.exception
            return sentinel.value
        if deadline is not None:
            self.now = deadline
        return None


ENGINES = {
    "engine": (Environment, Resource),
    "reference": (RefEnvironment, RefResource),
}


class Boom(Exception):
    pass


def execute(engine, program, mode, start):
    """Run ``program`` on one engine; return everything it observed."""
    make_env, make_resource = ENGINES[engine]
    env = make_env(start)
    ticks = []
    env.add_monitor(lambda env, count: ticks.append((count, env.now)))
    # Held only by this list, so a recycling proof that miscounts its
    # references hands a live shared event back out.
    shared = [env.event() for _ in range(4)]
    resources = [make_resource(env, 1), make_resource(env, 2)]
    log = []
    generators = []

    def spawn(generator):
        generators.append(generator)
        return env.process(generator)

    def child(tag, delay, raises):
        yield env.timeout(delay)
        if raises:
            raise Boom(tag)
        return tag

    def process(pid, steps):
        for index, step in enumerate(steps):
            kind = step[0]
            try:
                if kind == "sleep":
                    outcome = yield env.timeout(step[1], (pid, index))
                elif kind == "wait":
                    outcome = yield shared[step[1]]
                elif kind in ("succeed", "fail"):
                    if shared[step[1]].triggered:
                        outcome = "already triggered"
                    elif kind == "succeed":
                        shared[step[1]].succeed((pid, index))
                        outcome = "succeeded"
                    else:
                        shared[step[1]].fail(Boom(pid, index))
                        outcome = "failed"
                elif kind == "hold":
                    _, which, fast, delay = step
                    resource = resources[which]
                    request = resource.try_acquire() if fast else None
                    path = "request" if request is None else "try_acquire"
                    if request is None:
                        request = resource.request()
                    granted = yield request
                    log.append((pid, index, env.now, path, granted is request))
                    yield env.timeout(delay)
                    resource.release(request)
                    outcome = "released"
                elif kind == "child":
                    tag = f"child {pid}.{index}"
                    outcome = yield spawn(child(tag, step[1], step[2]))
                else:
                    outcome = yield env.all_of([shared[k] for k in step[1]])
            except Boom as exc:
                outcome = ("raised", exc.args)
            log.append((pid, index, env.now, outcome))
        return pid

    processes = [spawn(process(pid, steps)) for pid, steps in enumerate(program)]
    error = None
    try:
        if mode == "until first process":
            log.append(("first process", env.run(until=processes[0])))
        elif mode == "until 1.0":
            env.run(until=start + 1.0)
        env.run()
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
    # Close what never finished, so no suspended generator is left for
    # the cyclic collector to finalize: objects a finalizer touches
    # survive that collection, and later tests count cyclic garbage.
    for generator in generators:
        generator.close()
    return {
        "log": log,
        "ticks": ticks,
        "now": env.now,
        "event_count": env.event_count,
        "error": error,
    }


_delays = st.sampled_from([0.0, 0.5, 1.0, 1.5])
_shared = st.integers(min_value=0, max_value=3)
_step = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    st.tuples(st.just("wait"), _shared),
    st.tuples(st.sampled_from(["succeed", "fail"]), _shared),
    st.tuples(st.just("hold"), st.integers(0, 1), st.booleans(), _delays),
    st.tuples(st.just("child"), _delays, st.booleans()),
    st.tuples(st.just("all_of"), st.lists(_shared, max_size=3)),
)
_programs = st.lists(st.lists(_step, min_size=1, max_size=8), min_size=1, max_size=5)


@given(
    program=_programs,
    mode=st.sampled_from(["drain", "until first process", "until 1.0"]),
    # At 2**53 the 0.5 and 1.0 delays are absorbed: those timeouts land
    # on the current instant, behind every zero-delay event already
    # queued there.  That is the case the pop rule's sequence comparison
    # exists for; at 0.0 timeouts only collide with each other.
    start=st.sampled_from([0.0, 2.0**53]),
)
def test_engine_matches_reference(program, mode, start):
    observed = execute("engine", program, mode, start)
    assert observed == execute("reference", program, mode, start)
    # The programs catch every exception they raise, so the one error a
    # run may end with is a first process that can never finish.
    assert observed["error"] in (None, ("SimulationError", _STARVED))
