"""Tests for the VaBlock state record and the per-GPU page queues."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.driver.queues import DiscardedQueue, GpuPageQueues, UsedQueue
from repro.driver.va_block import CPU, DiscardKind, VaBlock
from repro.errors import SimulationError
from repro.units import BIG_PAGE


def make_block(index=0, used=BIG_PAGE):
    return VaBlock(index, used)


class TestVaBlock:
    def test_initial_state(self):
        block = make_block(3)
        assert block.residency is None
        assert not block.populated
        assert not block.discarded
        assert block.sw_dirty
        assert block.version == 0
        assert not block.on_gpu and not block.on_cpu

    def test_used_bytes_validation(self):
        with pytest.raises(SimulationError):
            VaBlock(0, 0)
        with pytest.raises(SimulationError):
            VaBlock(0, BIG_PAGE + 1)

    def test_va_range(self):
        block = VaBlock(5, 1234)
        assert block.va_range.start == 5 * BIG_PAGE
        assert block.va_range.length == 1234

    def test_residency_predicates(self):
        block = make_block()
        block.residency = CPU
        assert block.on_cpu and not block.on_gpu
        block.residency = "gpu0"
        assert block.on_gpu and not block.on_cpu

    def test_mark_discarded_eager(self):
        block = make_block()
        block.record_write()
        block.mark_discarded(DiscardKind.EAGER)
        assert block.discarded
        assert block.discard_kind is DiscardKind.EAGER
        assert not block.populated
        assert block.sw_dirty  # only lazy clears the software dirty bit

    def test_mark_discarded_lazy_clears_dirty_bit(self):
        block = make_block()
        block.mark_discarded(DiscardKind.LAZY)
        assert not block.sw_dirty

    def test_write_after_discard_tracked(self):
        """The ground truth behind the §5.2 misuse detector."""
        block = make_block()
        block.mark_discarded(DiscardKind.LAZY)
        assert not block.written_since_discard
        block.record_write()
        assert block.written_since_discard
        assert block.populated

    def test_revive_resets_discard_state(self):
        block = make_block()
        block.mark_discarded(DiscardKind.LAZY)
        block.revive()
        assert not block.discarded
        assert block.discard_kind is None
        assert block.sw_dirty
        assert not block.written_since_discard

    def test_version_bumps_on_write(self):
        block = make_block()
        block.record_write()
        block.record_write()
        assert block.version == 2

    def test_transfer_needed_for_eviction(self):
        """§5.3: discarded or unpopulated blocks evict with no transfer."""
        block = make_block()
        assert not block.transfer_needed_for_eviction
        block.record_write()
        assert block.transfer_needed_for_eviction
        block.mark_discarded(DiscardKind.EAGER)
        assert not block.transfer_needed_for_eviction


class TestUsedQueue:
    def test_lru_order(self):
        queue = UsedQueue()
        blocks = [make_block(i) for i in range(3)]
        for block in blocks:
            queue.touch(block)
        assert queue.pop_lru() is blocks[0]
        assert queue.pop_lru() is blocks[1]

    def test_touch_moves_to_mru(self):
        queue = UsedQueue()
        blocks = [make_block(i) for i in range(3)]
        for block in blocks:
            queue.touch(block)
        queue.touch(blocks[0])  # refresh recency
        assert queue.pop_lru() is blocks[1]

    def test_fifo_policy_keeps_insertion_order(self):
        queue = UsedQueue("fifo")
        blocks = [make_block(i) for i in range(3)]
        queue.touch_all(blocks)
        queue.touch_all([blocks[0], blocks[1]])  # no recency refresh
        assert queue.pop_lru() is blocks[0]
        queue.set_policy("lru")
        queue.touch_all([blocks[1]])
        assert queue.pop_lru() is blocks[2]

    def test_remove_and_discard(self):
        queue = UsedQueue()
        block = make_block(1)
        queue.touch(block)
        queue.remove(block)
        assert block not in queue
        with pytest.raises(SimulationError):
            queue.remove(block)
        queue.discard(block)  # no-op on absent block

    def test_pop_unlocked_leaves_locked_blocks_in_place(self):
        queue = UsedQueue()
        a, b, c = make_block(1), make_block(2), make_block(3)
        queue.touch_all([a, b, c])
        assert queue.pop_unlocked({a.index}) is b
        assert [block.index for block in queue] == [a.index, c.index]
        assert queue.pop_unlocked({a.index, c.index}) is None
        assert len(queue) == 2
        assert queue.pop_unlocked(()) is a

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            UsedQueue().pop_lru()

    def test_peek_lru(self):
        queue = UsedQueue()
        assert queue.peek_lru() is None
        block = make_block(1)
        queue.touch(block)
        assert queue.peek_lru() is block
        assert len(queue) == 1

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
    def test_lru_matches_reference_model(self, touches):
        """The pseudo-LRU queue behaves like a reference recency list."""
        queue = UsedQueue()
        blocks = {i: make_block(i) for i in range(10)}
        reference = []
        for index in touches:
            queue.touch(blocks[index])
            if index in reference:
                reference.remove(index)
            reference.append(index)
        drained = []
        while len(queue):
            drained.append(queue.pop_lru().index)
        assert drained == reference


class TestDiscardedQueue:
    def test_fifo_order(self):
        queue = DiscardedQueue()
        blocks = [make_block(i) for i in range(3)]
        for block in blocks:
            queue.push(block)
        assert queue.pop_oldest() is blocks[0]
        assert queue.pop_oldest() is blocks[1]

    def test_double_push_rejected(self):
        queue = DiscardedQueue()
        block = make_block(1)
        queue.push(block)
        with pytest.raises(SimulationError):
            queue.push(block)

    def test_remove(self):
        queue = DiscardedQueue()
        block = make_block(1)
        queue.push(block)
        queue.remove(block)
        assert len(queue) == 0
        with pytest.raises(SimulationError):
            queue.remove(block)

    def test_pop_unlocked_takes_the_oldest_unlocked(self):
        queue = DiscardedQueue()
        a, b, c = make_block(1), make_block(2), make_block(3)
        for block in (a, b, c):
            queue.push(block)
        assert queue.pop_unlocked({a.index, b.index}) is c
        assert queue.pop_unlocked({b.index}) is a
        assert queue.pop_oldest() is b
        assert DiscardedQueue().pop_unlocked(()) is None

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            DiscardedQueue().pop_oldest()


class TestGpuPageQueues:
    def test_forget_from_either_queue(self):
        queues = GpuPageQueues("gpu0")
        a, b = make_block(1), make_block(2)
        queues.used.touch(a)
        queues.discarded.push(b)
        assert queues.resident_blocks() == 2
        queues.forget(a)
        queues.forget(b)
        queues.forget(make_block(3))  # absent: no-op
        assert queues.resident_blocks() == 0
