"""Tests for engine resources (FIFO slots) and stores."""

import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Environment, Resource, Store
from repro.errors import SimulationError


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_serializes_single_slot(self):
        env = Environment()
        resource = Resource(env)
        spans = []

        def worker(tag):
            request = resource.request()
            yield request
            start = env.now
            yield env.timeout(1.0)
            resource.release(request)
            spans.append((tag, start, env.now))

        for tag in range(3):
            env.process(worker(tag))
        env.run()
        # FIFO grant order, back to back with no overlap.
        assert [s[0] for s in spans] == [0, 1, 2]
        for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
            assert start == pytest.approx(end)

    def test_parallel_with_two_slots(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        done = []

        def worker(tag):
            request = resource.request()
            yield request
            yield env.timeout(1.0)
            resource.release(request)
            done.append((tag, env.now))

        for tag in range(4):
            env.process(worker(tag))
        env.run()
        assert env.now == pytest.approx(2.0)
        assert [d[0] for d in done] == [0, 1, 2, 3]

    def test_release_of_ungranted_slot_rejected(self):
        env = Environment()
        resource = Resource(env)
        request = resource.request()

        def drive():
            yield request

        env.process(drive())
        env.run()
        resource.release(request)
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_queue_length_and_in_use(self):
        env = Environment()
        resource = Resource(env)
        held = {}

        def holder():
            request = resource.request()
            yield request
            held["request"] = request
            yield env.timeout(10.0)
            resource.release(request)

        def waiter():
            request = resource.request()
            yield request
            resource.release(request)

        env.process(holder())
        env.process(waiter())
        env.run(until=5.0)
        assert resource.in_use == 1
        assert resource.queue_length == 1
        env.run()
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_idle_only_with_no_slot_granted(self):
        resource = Resource(Environment(), capacity=2)
        assert resource.idle
        first = resource.try_acquire()
        # One slot is still free, but one is held.
        assert not resource.idle
        second = resource.try_acquire()
        waiting = resource.request()
        assert resource.queue_length == 1
        resource.release(first)  # grants the waiting request
        resource.release(second)
        assert not resource.idle
        resource.release(waiting)
        assert resource.idle


class TestReleasedRequestsLeaveNoCycles:
    """A release drops the granted request's self-reference, so a
    released request is recycled or freed by reference counting."""

    def test_contended_release(self, collector_off):
        env = Environment()
        resource = Resource(env)
        holder = resource.try_acquire()
        waiter = resource.request()
        resource.release(holder)  # hands the slot to the queued waiter
        env.run()
        assert waiter.value is waiter
        resource.release(waiter)
        del holder, waiter
        assert gc.collect() == 0

    def test_uncontended_release(self, collector_off):
        resource = Resource(Environment())
        private = resource.try_acquire()
        resource.release(private)
        recycled = resource.try_acquire()
        assert recycled is private  # the refcount proof still recycles
        elsewhere = [recycled]
        resource.release(recycled)
        fresh = resource.try_acquire()
        assert fresh is not recycled  # still referenced: not recycled
        resource.release(fresh)
        del private, recycled, elsewhere, fresh
        assert gc.collect() == 0


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        seen = {}

        def consumer():
            seen["item"] = yield store.get()

        store.put("x")
        env.process(consumer())
        env.run()
        assert seen["item"] == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        seen = {}

        def consumer():
            seen["item"] = yield store.get()
            seen["time"] = env.now

        def producer():
            yield env.timeout(3.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert seen["item"] == "late"
        assert seen["time"] == pytest.approx(3.0)

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            for _ in range(3):
                received.append((yield store.get()))

        for item in (1, 2, 3):
            store.put(item)
        env.process(consumer())
        env.run()
        assert received == [1, 2, 3]

    def test_len_tracks_items(self):
        store = Store(Environment())
        assert len(store) == 0
        store.put("a")
        store.put("b")
        assert len(store) == 2


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=20))
def test_resource_total_time_matches_capacity(capacity, jobs):
    """With unit-time jobs, makespan == ceil(jobs / capacity)."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def worker():
        request = resource.request()
        yield request
        yield env.timeout(1.0)
        resource.release(request)

    for _ in range(jobs):
        env.process(worker())
    env.run()
    assert env.now == pytest.approx(-(-jobs // capacity))
