"""Edge-case and fast-path regression tests for the engine kernel.

The optimized engine takes shortcuts — synchronous continuation through
already-processed events, ``try_acquire`` grants that never touch the
heap, recycled :class:`Timeout` objects.  These tests pin down the
semantics the shortcuts must preserve.
"""

from __future__ import annotations

import pytest

from repro.engine.core import Environment, Timeout
from repro.engine.resources import Request, Resource


class Boom(RuntimeError):
    pass


class TestAllOfFailure:
    def test_child_failure_propagates_to_waiter(self):
        env = Environment()
        seen = {}

        def failing():
            yield env.timeout(1.0)
            raise Boom("child died")

        def healthy():
            yield env.timeout(2.0)
            return "ok"

        def waiter():
            try:
                yield env.all_of([env.process(failing()), env.process(healthy())])
            except Boom as exc:
                seen["error"] = str(exc)
                seen["time"] = env.now

        env.process(waiter())
        env.run()
        assert seen["error"] == "child died"
        # The failure surfaces when the failing child dies, not when the
        # slower sibling would have completed.
        assert seen["time"] == pytest.approx(1.0)

    def test_already_failed_child_rejected(self):
        env = Environment()
        failed = env.event()
        failed.fail(Boom("pre-failed"))

        def waiter():
            with pytest.raises(Boom):
                yield env.all_of([failed, env.timeout(1.0)])

        env.process(waiter())
        env.run()


class TestTryAcquire:
    def test_grants_when_free_and_yield_is_noop(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def fast():
            request = resource.try_acquire()
            assert isinstance(request, Request)
            yield request  # already processed: resumes without scheduling
            order.append(("held", env.now))
            yield env.timeout(1.0)
            resource.release(request)
            order.append(("released", env.now))

        env.process(fast())
        env.run()
        assert order == [("held", 0.0), ("released", 1.0)]

    def test_returns_none_when_full_or_contended(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.try_acquire()
        assert first is not None
        assert resource.try_acquire() is None  # full
        waiter = resource.request()  # queues behind the grant
        resource.release(first)
        # waiter now holds the slot; a queue ever being non-empty must
        # never let try_acquire jump the FIFO.
        assert resource.in_use == 1
        resource.release(waiter)
        assert resource.try_acquire() is not None

    def test_release_of_fast_grant_wakes_queued_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        woken = []

        def fast():
            request = resource.try_acquire()
            yield env.timeout(1.0)
            resource.release(request)

        def slow():
            request = resource.request()
            yield request
            woken.append(env.now)
            resource.release(request)

        env.process(fast())
        env.process(slow())
        env.run()
        assert woken == [pytest.approx(1.0)]


class TestTimeoutRecycling:
    def test_many_sequential_timeouts_keep_correct_delays(self):
        env = Environment()
        trace = []

        def ticker():
            for i in range(1, 300):
                yield env.timeout(i * 1e-6)
                trace.append(env.now)

        env.process(ticker())
        env.run()
        expected = 0.0
        for i, now in zip(range(1, 300), trace):
            expected += i * 1e-6
            assert now == pytest.approx(expected)

    def test_held_reference_is_not_recycled(self):
        env = Environment()
        kept = {}

        def holder():
            timeout = env.timeout(2.0)
            kept["timeout"] = timeout
            yield timeout
            # Burn through enough further timeouts that a recycled object
            # would have been reinitialized by now.
            for _ in range(50):
                yield env.timeout(0.1)

        env.process(holder())
        env.run()
        assert isinstance(kept["timeout"], Timeout)
        assert kept["timeout"].delay == 2.0

