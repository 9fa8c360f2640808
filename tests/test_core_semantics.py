"""Tests for the §4.1 semantics oracle and the discard advisor."""

import pytest

from repro.access import AccessMode
from repro.core import DataOracle, DiscardAdvisor
from repro.core.advisor import DiscardSuggestion
from repro.driver.va_block import DiscardKind, VaBlock
from repro.errors import DataCorruptionError
from repro.units import BIG_PAGE


def make_block(index=0):
    return VaBlock(index, BIG_PAGE)


class TestDataOracle:
    def test_plain_write_read_is_clean(self):
        oracle = DataOracle()
        block = make_block()
        oracle.record_writes(0.0, [block])
        oracle.validate_read(1.0, block)
        assert oracle.events == []

    def test_read_after_discard_is_legal_but_flagged(self):
        """§4.1: reads may return zeros or stale values — legal."""
        oracle = DataOracle()
        block = make_block()
        oracle.record_writes(0.0, [block])
        block.mark_discarded(DiscardKind.EAGER)
        oracle.record_discards(1.0, [block])
        oracle.validate_read(2.0, block)
        kinds = [e.kind for e in oracle.events]
        assert kinds == ["read_after_discard"]
        assert oracle.corruption_count == 0

    def test_lost_write_corrupts(self):
        oracle = DataOracle()
        block = make_block()
        oracle.record_writes(0.0, [block])
        oracle.record_data_loss(1.0, block, "reclaimed after unnotified write")
        oracle.validate_read(2.0, block)
        assert oracle.corruption_count == 1
        assert oracle.corrupted_read_count == 1
        assert block.index in oracle.corrupted_blocks

    def test_data_loss_without_guarantee_is_noop(self):
        """Dropping never-guaranteed data (zeros, stale) is fine."""
        oracle = DataOracle()
        block = make_block()
        oracle.record_data_loss(0.0, block, "nothing was promised")
        assert oracle.corruption_count == 0

    def test_strict_mode_raises_on_corrupted_read(self):
        oracle = DataOracle(strict=True)
        block = make_block()
        oracle.record_writes(0.0, [block])
        oracle.record_data_loss(1.0, block, "lost")
        with pytest.raises(DataCorruptionError):
            oracle.validate_read(2.0, block)

    def test_new_write_heals_corruption(self):
        oracle = DataOracle(strict=True)
        block = make_block()
        oracle.record_writes(0.0, [block])
        oracle.record_data_loss(1.0, block, "lost")
        oracle.record_writes(2.0, [block])
        oracle.validate_read(3.0, block)  # must not raise
        assert oracle.corrupted_read_count == 0

    def test_discard_waives_pending_corruption(self):
        oracle = DataOracle(strict=True)
        block = make_block()
        oracle.record_writes(0.0, [block])
        oracle.record_data_loss(1.0, block, "lost")
        block.mark_discarded(DiscardKind.EAGER)
        oracle.record_discards(2.0, [block])
        oracle.validate_read(3.0, block)  # legal: nothing guaranteed now
        assert oracle.corrupted_read_count == 0

    def test_readwrite_batch_reads_before_each_write(self):
        """A block touched twice in one read-modify-write batch reads,
        writes, reads and writes: only the first read sees the lost data,
        and the second write lands on the healed block."""
        oracle = DataOracle()
        block = make_block()
        oracle.record_writes(0.0, [block])
        oracle.record_data_loss(1.0, block, "lost")
        oracle.record_writes(2.0, [block, block], reads=True)
        assert [e.kind for e in oracle.events] == ["corruption", "corrupted_read"]
        assert block.version == 3
        assert oracle.corrupted_blocks == set()

    def test_readwrite_batch_after_discard_flags_first_read_only(self):
        oracle = DataOracle()
        block = make_block()
        oracle.record_discards(0.0, [block])
        block.mark_discarded(DiscardKind.LAZY)
        oracle.record_writes(1.0, [block, block], reads=True)
        assert [e.kind for e in oracle.events] == ["read_after_discard"]
        assert block.written_since_discard

    def test_validate_reads_flags_only_discarded_or_corrupted(self):
        oracle = DataOracle()
        live, discarded, lost = make_block(0), make_block(1), make_block(2)
        oracle.record_writes(0.0, [live, discarded, lost])
        oracle.record_discards(1.0, [discarded])
        discarded.mark_discarded(DiscardKind.EAGER)
        oracle.record_data_loss(1.0, lost, "lost")
        oracle.validate_reads(2.0, [live, discarded, lost, live])
        assert [(e.block_index, e.kind) for e in oracle.events] == [
            (2, "corruption"),
            (1, "read_after_discard"),
            (2, "corrupted_read"),
        ]


class TestDiscardAdvisor:
    def test_dead_at_end_suggested(self):
        advisor = DiscardAdvisor()
        advisor.observe("k1", "a", AccessMode.WRITE)
        advisor.observe("k2", "a", AccessMode.READ)
        suggestions = advisor.suggestions()
        # After k2, 'a' is never used again.
        assert any(
            s.buffer == "a" and s.after_kernel == "k2" and s.reuse_distance is None
            for s in suggestions
        )

    def test_overwrite_before_read_suggested(self):
        advisor = DiscardAdvisor()
        advisor.observe("produce", "buf", AccessMode.WRITE)
        advisor.observe("consume", "buf", AccessMode.READ)
        advisor.observe("other", "x", AccessMode.WRITE)
        advisor.observe("produce2", "buf", AccessMode.WRITE)
        suggestions = advisor.suggestions()
        consume = [s for s in suggestions if s.after_kernel == "consume"]
        assert len(consume) == 1
        assert consume[0].buffer == "buf"
        assert consume[0].reuse_distance == 1  # one intervening access

    def test_read_before_next_use_not_suggested(self):
        advisor = DiscardAdvisor()
        advisor.observe("k1", "buf", AccessMode.WRITE)
        advisor.observe("k2", "buf", AccessMode.READ)
        advisor.observe("k3", "buf", AccessMode.READ)  # still live after k2
        suggestions = [s for s in advisor.suggestions() if s.after_kernel == "k2"]
        assert suggestions == []

    def test_readwrite_successor_blocks_suggestion(self):
        """RMW reads old contents: discarding before it would corrupt."""
        advisor = DiscardAdvisor()
        advisor.observe("k1", "buf", AccessMode.WRITE)
        advisor.observe("k2", "buf", AccessMode.READWRITE)
        k1_suggestions = [s for s in advisor.suggestions() if s.after_kernel == "k1"]
        assert k1_suggestions == []

    def test_suggested_after_conservative_over_occurrences(self):
        """A repeated kernel gets a buffer only if safe at EVERY occurrence."""
        advisor = DiscardAdvisor()
        # Round 1: after 'stage' buf is overwritten next -> safe.
        advisor.observe("stage", "buf", AccessMode.READ)
        advisor.observe("writer", "buf", AccessMode.WRITE)
        # Round 2: after 'stage' buf is READ next -> unsafe.
        advisor.observe("stage", "buf", AccessMode.READ)
        advisor.observe("reader", "buf", AccessMode.READ)
        assert advisor.suggested_after("stage") == []

    def test_suggested_after_consistent_pattern(self):
        advisor = DiscardAdvisor()
        for _ in range(3):
            advisor.observe("consume", "temp", AccessMode.READ)
            advisor.observe("refill", "temp", AccessMode.WRITE)
        assert advisor.suggested_after("consume") == ["temp"]

    def test_trace_is_copied(self):
        advisor = DiscardAdvisor()
        advisor.observe("k", "b", AccessMode.READ)
        trace = advisor.trace
        trace.clear()
        assert len(advisor.trace) == 1

    def test_empty_trace(self):
        advisor = DiscardAdvisor()
        assert advisor.suggestions() == []
        assert advisor.suggested_after("anything") == []

    def test_suggestion_is_frozen_record(self):
        suggestion = DiscardSuggestion("b", "k", 0, None)
        with pytest.raises(AttributeError):
            suggestion.buffer = "c"  # type: ignore[misc]
