"""Tests for the discrete-event engine core."""

import gc

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
