"""Tests for the discrete-event engine core."""

import gc
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Environment
from repro.errors import SimulationError


class TestTimeout:
    def test_clock_advances_by_delay(self):
        env = Environment()

        def proc():
            yield env.timeout(1.5)
            yield env.timeout(0.5)

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_zero_delay_is_allowed(self):
        env = Environment()

        def proc():
            yield env.timeout(0.0)

        env.process(proc())
        env.run()
        assert env.now == 0.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_carries_value(self):
        env = Environment()
        seen = {}

        def proc():
            seen["value"] = yield env.timeout(1.0, value="payload")

        env.process(proc())
        env.run()
        assert seen["value"] == "payload"


class TestOrdering:
    def test_simultaneous_events_fifo(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_earlier_events_first(self):
        env = Environment()
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3.0, "late"))
        env.process(proc(1.0, "early"))
        env.process(proc(2.0, "mid"))
        env.run()
        assert order == ["early", "mid", "late"]

    def test_determinism_across_runs(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(n):
                for i in range(n):
                    yield env.timeout(0.1 * (n - i))
                    trace.append((n, i, round(env.now, 6)))

            for n in (3, 1, 2):
                env.process(worker(n))
            env.run()
            return trace

        assert build_and_run() == build_and_run()


class TestProcessComposition:
    def test_yield_child_process_gets_return_value(self):
        env = Environment()
        seen = {}

        def child():
            yield env.timeout(1.0)
            return 42

        def parent():
            seen["result"] = yield env.process(child())

        env.process(parent())
        env.run()
        assert seen["result"] == 42

    def test_exception_propagates_to_parent(self):
        env = Environment()
        seen = {}

        def child():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                seen["error"] = str(exc)

        env.process(parent())
        env.run()
        assert seen["error"] == "boom"

    def test_unhandled_exception_escapes_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise RuntimeError("unhandled")

        env.process(bad())
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_waiting_on_finished_process(self):
        env = Environment()
        seen = {}

        def child():
            yield env.timeout(1.0)
            return "done"

        def parent(proc):
            yield env.timeout(5.0)  # child finished long ago
            seen["result"] = yield proc

        proc = env.process(child())
        env.process(parent(proc))
        env.run()
        assert seen["result"] == "done"


class TestEvents:
    def test_manual_event_wakes_waiter(self):
        env = Environment()
        event = env.event()
        seen = {}

        def waiter():
            seen["value"] = yield event

        def trigger():
            yield env.timeout(2.0)
            event.succeed("hello")

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert seen["value"] == "hello"
        assert env.now == pytest.approx(2.0)

    def test_event_fail_raises_in_waiter(self):
        env = Environment()
        event = env.event()

        def waiter():
            yield event

        def trigger():
            yield env.timeout(1.0)
            event.fail(KeyError("nope"))

        env.process(waiter())
        env.process(trigger())
        with pytest.raises(KeyError):
            env.run()

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_fire_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_all_of_collects_values(self):
        env = Environment()
        seen = {}

        def waiter(events):
            seen["values"] = yield env.all_of(events)

        timeouts = [env.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]
        env.process(waiter(timeouts))
        env.run()
        assert seen["values"] == [3.0, 1.0, 2.0]
        assert env.now == pytest.approx(3.0)

    def test_all_of_empty(self):
        env = Environment()
        seen = {}

        def waiter():
            seen["values"] = yield env.all_of([])

        env.process(waiter())
        env.run()
        assert seen["values"] == []


class TestRunModes:
    def test_run_until_time(self):
        env = Environment()

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        env.run(until=5.5)
        assert env.now == pytest.approx(5.5)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(2.0)
            return "finished"

        result = env.run(until=env.process(proc()))
        assert result == "finished"

    def test_run_until_event_starvation_detected(self):
        env = Environment()
        never = env.event()

        def waiter():
            yield never

        env.process(waiter())
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_run_past_deadline_advances_clock(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == pytest.approx(10.0)

    def test_deadline_before_now_rejected(self):
        env = Environment()

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        env.run(until=10.0)
        with pytest.raises(ValueError, match="5.0.*10.0"):
            env.run(until=5.0)
        env.process(ticker())
        with pytest.raises(ValueError, match="2.0.*10.0"):
            env.run(until=2.0)
        assert env.now == 10.0
        # A deadline equal to the current time is legal and runs what is
        # due now without moving the clock.
        env.run(until=10.0)
        assert env.now == 10.0


def _state(env):
    return env.now, env.event_count, env._sequence


def _wait(env, delay, seen):
    """Wait ``delay`` the way the simulator's hot waits do, recording the
    state before the advance call, its answer and the state after it."""
    before = _state(env)
    advanced = env.advance(delay)
    seen.append((before, advanced, _state(env)))
    if not advanced:
        yield env.timeout(delay)


class TestAdvance:
    """``advance`` moves the clock only when a timeout of that delay
    would be the next event processed and the caller its only waiter.
    Each refusal leaves ``now``, ``event_count`` and ``_sequence`` where
    they were, and the caller's timeout takes the usual path."""

    def test_takes_the_place_of_the_next_timeout(self):
        env = Environment()
        seen = []

        def proc():
            yield from _wait(env, 1.5, seen)
            yield env.timeout(0.5)

        env.process(proc())
        env.run()
        # The bootstrap took sequence 0 and is being dispatched; the
        # advance uses up sequence 1 and one processed event.
        assert seen == [((0.0, 0, 1), True, (1.5, 1, 2))]
        assert _state(env) == (2.0, 4, 4)

        plain = Environment()

        def timed():
            yield plain.timeout(1.5)
            yield plain.timeout(0.5)

        plain.process(timed())
        plain.run()
        assert _state(plain) == _state(env)

    def test_advances_up_to_the_deadline_inclusive(self):
        env = Environment()
        seen = []
        env.process(_wait(env, 1.0, seen))
        env.run(until=1.0)
        assert seen == [((0.0, 0, 1), True, (1.0, 1, 2))]

    def test_refuses_a_zero_delay(self):
        env = Environment()
        seen = []
        env.process(_wait(env, 0.0, seen))
        env.run()
        assert seen == [((0.0, 0, 1), False, (0.0, 0, 1))]
        assert _state(env) == (0.0, 3, 3)

    def test_refuses_a_delay_the_clock_absorbs(self):
        start = 2.0**53
        assert start + 0.5 == start
        env = Environment(start)
        seen = []
        env.process(_wait(env, 0.5, seen))
        env.run()
        assert seen == [((start, 0, 1), False, (start, 0, 1))]
        assert _state(env) == (start, 3, 3)

    def test_refuses_behind_a_queued_zero_delay_event(self):
        env = Environment()
        seen = []

        def proc():
            env.event().succeed()
            yield from _wait(env, 1.0, seen)

        env.process(proc())
        env.run()
        assert seen == [((0.0, 0, 2), False, (0.0, 0, 2))]
        assert _state(env) == (1.0, 4, 4)

    def test_refuses_when_an_event_is_due_at_the_same_time(self):
        env = Environment()
        seen = []

        def other():
            yield env.timeout(1.0)

        env.process(other())
        env.process(_wait(env, 1.0, seen))
        env.run()
        # other's timeout (sequence 2) sits in the bucket at 1.0 and is
        # older than the caller's would be, so it goes first.
        assert seen == [((0.0, 1, 3), False, (0.0, 1, 3))]
        assert _state(env) == (1.0, 6, 6)

    def test_refuses_under_a_monitor(self):
        env = Environment()
        ticks = []
        env.add_monitor(lambda env, count: ticks.append(count))
        seen = []
        env.process(_wait(env, 1.0, seen))
        env.run()
        assert seen == [((0.0, 0, 1), False, (0.0, 0, 1))]
        assert ticks == [1, 2, 3]

    def test_refuses_past_the_deadline(self):
        env = Environment()
        seen = []
        env.process(_wait(env, 1.0, seen))
        env.run(until=0.5)
        assert seen == [((0.0, 0, 1), False, (0.0, 0, 1))]
        assert _state(env) == (0.5, 1, 2)
        env.run()
        assert _state(env) == (1.0, 3, 3)

    def test_refuses_a_second_waiter(self):
        env = Environment()
        fired = env.event()
        seen = []

        def waiter():
            yield fired
            yield from _wait(env, 1.0, seen)

        env.process(waiter())
        env.process(waiter())
        fired.succeed()
        env.run()
        # Both wait on one event: the first resumed may not run ahead
        # of the second, which resumes at 0.0 too.
        assert seen[0] == ((0.0, 2, 3), False, (0.0, 2, 3))
        assert seen[1] == ((0.0, 2, 4), False, (0.0, 2, 4))

    def test_refuses_on_the_sentinel_dispatch(self):
        env = Environment()
        seen = []

        def first():
            yield env.timeout(0.5)

        target = env.process(first())

        def joiner():
            yield target
            yield from _wait(env, 1.0, seen)

        env.process(joiner())
        env.run(until=target)
        # The run stops once target is processed, before the joiner's
        # timeout.
        assert seen == [((0.5, 3, 4), False, (0.5, 3, 4))]
        assert _state(env) == (0.5, 4, 5)
        env.run()
        assert _state(env) == (1.5, 6, 6)

    def test_refuses_outside_run(self):
        env = Environment()
        assert not env.advance(1.0)
        assert _state(env) == (0.0, 0, 0)

        def stalls():
            # The last event this run dispatches has one callback.
            yield env.timeout(1.0)
            yield env.event()

        stalled = stalls()
        env.process(stalled)
        env.run()
        assert not env.advance(1.0)
        assert _state(env) == (1.0, 2, 2)
        stalled.close()

        def fails():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(fails())
        with pytest.raises(RuntimeError):
            env.run()
        assert not env.advance(1.0)
        # The dispatch that raised is not counted.
        assert _state(env) == (2.0, 3, 4)


def _horizon_then_wait(env, seen, delay=1.0):
    """Read the horizon where a hot wait would, then wait ``delay``."""
    seen.append(env.horizon())
    yield env.timeout(delay)


class TestHorizon:
    """``horizon()`` is the latest instant ``advance`` may move the clock
    to: −∞ in each case ``advance`` refuses whatever the delay, else the
    run's deadline or the float just below the earliest scheduled time,
    whichever comes first."""

    def test_minus_infinity_outside_run(self):
        env = Environment()
        assert env.horizon() == -math.inf
        seen = []
        env.process(_horizon_then_wait(env, seen))
        env.run()
        assert seen == [math.inf]
        assert env.horizon() == -math.inf

    def test_minus_infinity_under_a_monitor(self):
        env = Environment()
        env.add_monitor(lambda env, count: None)
        seen = []
        env.process(_horizon_then_wait(env, seen))
        env.run()
        assert seen == [-math.inf]

    def test_minus_infinity_behind_a_queued_zero_delay_event(self):
        env = Environment()
        seen = []

        def proc():
            env.event().succeed()
            yield from _horizon_then_wait(env, seen)

        env.process(proc())
        env.run()
        assert seen == [-math.inf]

    def test_minus_infinity_with_a_second_waiter(self):
        env = Environment()
        fired = env.event()
        seen = []

        def waiter():
            yield fired
            yield from _horizon_then_wait(env, seen)

        env.process(waiter())
        env.process(waiter())
        fired.succeed()
        env.run()
        assert seen == [-math.inf, -math.inf]

    def test_minus_infinity_on_the_sentinel_dispatch(self):
        env = Environment()
        seen = []

        def first():
            yield env.timeout(0.5)

        target = env.process(first())

        def joiner():
            yield target
            yield from _horizon_then_wait(env, seen)

        env.process(joiner())
        env.run(until=target)
        assert seen == [-math.inf]
        env.run()

    def test_the_deadline_when_the_heap_is_empty(self):
        env = Environment()
        seen = []
        env.process(_horizon_then_wait(env, seen))
        env.run(until=3.0)
        assert seen == [3.0]

    def test_the_deadline_when_it_comes_before_the_heap(self):
        env = Environment()
        seen = []

        def later():
            yield env.timeout(5.0)

        env.process(later())
        env.process(_horizon_then_wait(env, seen))
        env.run(until=3.0)
        assert seen == [3.0]

    @pytest.mark.parametrize(
        "start, due, below",
        # At 2**53 the floats are 2.0 apart: the one below start + 2.0
        # is start itself, so no wait may advance in place.
        [(0.0, 1.0, 1.0 - 2.0**-53), (2.0**53, 2.0, 2.0**53)],
    )
    def test_just_below_the_earliest_scheduled_time(self, start, due, below):
        env = Environment(start)
        seen = []
        moved = []

        def other():
            yield env.timeout(due)

        def proc():
            seen.append(env.horizon())
            moved.append(env.advance(due))
            moved.append(env.advance(below - start))
            yield env.timeout(due)

        env.process(other())
        env.process(proc())
        env.run()
        assert seen == [below]
        assert math.nextafter(below, math.inf) == start + due
        # The other process's timeout is older and goes first; a wait
        # that ends just below it is the next event processed.
        assert moved == [False, below > start]

    def test_advance_to_commits_like_as_many_advance_calls(self):
        delays = (0.5, 0.25, 1.0)
        after = []

        def stepwise(env):
            for delay in delays:
                assert env.advance(delay)
            after.append(_state(env))
            yield env.timeout(1.0)

        def at_once(env):
            clock = env.now
            horizon = env.horizon()
            for delay in delays:
                assert clock < clock + delay <= horizon
                clock += delay
            env.advance_to(clock, len(delays))
            after.append(_state(env))
            yield env.timeout(1.0)

        def timed(env):
            for delay in delays:
                yield env.timeout(delay)
            after.append(_state(env))
            yield env.timeout(1.0)

        ends = []
        for body in (stepwise, at_once, timed):
            env = Environment()
            env.process(body(env))
            env.run()
            ends.append(_state(env))
        # The bootstrap is still being dispatched when the moves end, and
        # the last timed wait's timeout too.
        assert after == [(1.75, 3, 4)] * 3
        assert ends == [(2.75, 6, 6)] * 3


class TestFinishedProcessesLeaveNoCycles:
    """A finished process drops its bound resume callback, so reference
    counting alone frees it (the exception path keeps its traceback,
    which legitimately refers back to the process's frame)."""

    def test_returned_processes(self, collector_off):
        env = Environment()
        seen = {}

        def child():
            yield env.timeout(1.0)
            return 42

        def parent():
            seen["value"] = yield env.process(child())

        processes = [env.process(parent()) for _ in range(3)]
        env.run()
        assert seen["value"] == 42
        assert not any(process.is_alive for process in processes)
        del processes
        assert gc.collect() == 0


class TestProcessValidation:
    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_rejected(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()


@given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=30))
def test_clock_is_monotone_and_ends_at_total(delays):
    env = Environment()
    observed = []

    def proc():
        for delay in delays:
            yield env.timeout(delay)
            observed.append(env.now)

    env.process(proc())
    env.run()
    assert observed == sorted(observed)
    assert env.now == pytest.approx(sum(delays))
