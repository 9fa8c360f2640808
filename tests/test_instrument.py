"""Tests for the instrumentation: traffic recorder, RMT classifier and
counters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.driver.va_block import VaBlock
from repro.instrument import (
    Counters,
    RmtClassifier,
    TrafficRecorder,
    TransferReason,
)
from repro.instrument.rmt import FATE_DISCARDED, FATE_OVERWRITTEN, FATE_USEFUL
from repro.interconnect import TransferDirection
from repro.units import BIG_PAGE

H2D = TransferDirection.HOST_TO_DEVICE
D2H = TransferDirection.DEVICE_TO_HOST


class TestTrafficRecorder:
    def test_per_direction_totals(self):
        traffic = TrafficRecorder()
        traffic.record(0.0, H2D, 100, TransferReason.PREFETCH)
        traffic.record(1.0, D2H, 40, TransferReason.EVICTION)
        traffic.record(2.0, H2D, 60, TransferReason.FAULT_MIGRATION)
        assert traffic.bytes_h2d == 160
        assert traffic.bytes_d2h == 40
        assert traffic.total_bytes == 200
        assert traffic.transfer_count == 3

    def test_per_reason_totals(self):
        traffic = TrafficRecorder()
        traffic.record(0.0, H2D, 100, TransferReason.PREFETCH)
        traffic.record(0.0, H2D, 50, TransferReason.PREFETCH)
        assert traffic.bytes_for(TransferReason.PREFETCH) == 150
        assert traffic.bytes_for(TransferReason.EVICTION) == 0
        assert traffic.breakdown() == {"prefetch": 150e-9}

    def test_records_retained_only_when_asked(self):
        silent = TrafficRecorder(keep_records=False)
        silent.record(0.0, H2D, 1, TransferReason.MEMCPY)
        assert silent.records == []
        verbose = TrafficRecorder(keep_records=True)
        record = verbose.record(0.5, D2H, 7, TransferReason.SWAP, 3, 1)
        assert verbose.records == [record]
        assert record.first_block == 3

    def test_total_gb_decimal(self):
        traffic = TrafficRecorder()
        traffic.record(0.0, H2D, 2_500_000_000, TransferReason.PREFETCH)
        assert traffic.total_gb == pytest.approx(2.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            TrafficRecorder().record(0.0, H2D, -1, TransferReason.MEMCPY)

    def test_reset(self):
        traffic = TrafficRecorder(keep_records=True)
        traffic.record(0.0, H2D, 10, TransferReason.MEMCPY)
        traffic.reset()
        assert traffic.total_bytes == 0
        assert traffic.transfer_count == 0
        assert traffic.records == []


def _blocks(*indices):
    return [VaBlock(index, BIG_PAGE) for index in indices]


class TestRmtClassifier:
    def _transfer(self, rmt, block, nbytes=100):
        rmt.on_transfer(block, nbytes, H2D, TransferReason.FAULT_MIGRATION)

    def test_read_resolves_useful(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_reads(_blocks(1))
        assert rmt.useful_bytes == 100
        assert rmt.redundant_bytes == 0

    def test_overwrite_resolves_redundant(self):
        """§3.1: transferred then overwritten before read = redundant."""
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_overwrites(_blocks(1))
        assert rmt.redundant_bytes == 100
        assert rmt.useful_bytes == 0

    def test_discard_resolves_redundant(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_discards(_blocks(1))
        assert rmt.redundant_bytes == 100

    def test_chain_resolved_together(self):
        """An evict + re-migrate chain resolves as one unit."""
        rmt = RmtClassifier()
        rmt.on_transfer(1, 100, D2H, TransferReason.EVICTION)
        rmt.on_transfer(1, 100, H2D, TransferReason.FAULT_MIGRATION)
        rmt.on_overwrites(_blocks(1))
        assert rmt.redundant_bytes == 200

    def test_read_then_new_transfer_independent(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_reads(_blocks(1))
        self._transfer(rmt, 1, nbytes=50)
        rmt.on_discards(_blocks(1))
        assert rmt.useful_bytes == 100
        assert rmt.redundant_bytes == 50

    def test_finalize_marks_pending_redundant(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        self._transfer(rmt, 2)
        rmt.finalize()
        assert rmt.redundant_bytes == 200
        rmt.finalize()  # idempotent
        assert rmt.redundant_bytes == 200

    def test_events_for_untracked_blocks_ignored(self):
        rmt = RmtClassifier()
        rmt.on_reads(_blocks(99))
        rmt.on_overwrites(_blocks(98))
        rmt.on_discards(_blocks(97))
        assert rmt.classified_bytes == 0

    def test_redundant_fraction(self):
        rmt = RmtClassifier()
        assert rmt.redundant_fraction == 0.0
        self._transfer(rmt, 1)
        rmt.on_reads(_blocks(1))
        self._transfer(rmt, 2)
        rmt.on_discards(_blocks(2))
        assert rmt.redundant_fraction == pytest.approx(0.5)

    def test_batch_resolves_only_its_blocks(self):
        """A batch resolves each listed block's chain once, repeats
        included, and leaves every other block pending."""
        rmt = RmtClassifier()
        for block in (1, 2, 3):
            self._transfer(rmt, block)
        rmt.on_reads(_blocks(1, 3, 1))
        assert rmt.useful_bytes == 200
        assert rmt.pending_bytes == 100
        rmt.on_overwrites(_blocks(3, 2, 2))
        assert rmt.redundant_bytes == 100
        assert rmt.pending_bytes == 0

    def test_batch_with_nothing_pending_leaves_later_transfers_tracked(self):
        rmt = RmtClassifier()
        rmt.on_reads(_blocks(1, 2))
        rmt.on_overwrites(_blocks(1))
        rmt.on_discards(_blocks(2))
        self._transfer(rmt, 1)
        self._transfer(rmt, 2)
        rmt.on_reads(_blocks(1))
        rmt.on_discards(_blocks(2))
        assert (rmt.useful_bytes, rmt.redundant_bytes) == (100, 100)

    def test_batch_credits_record_fates(self):
        """With records retained, each batch credits its own fate."""
        rmt = RmtClassifier()
        traffic = TrafficRecorder(keep_records=True)
        record = traffic.record(0.0, H2D, 300, TransferReason.PREFETCH, 1, 3)
        for index in (1, 2, 3):
            rmt.on_transfer(index, 100, H2D, TransferReason.PREFETCH, record)
        rmt.on_reads(_blocks(1))
        rmt.on_overwrites(_blocks(2))
        rmt.on_discards(_blocks(3))
        assert rmt.fates_for(record) == {
            FATE_USEFUL: 100,
            FATE_OVERWRITTEN: 100,
            FATE_DISCARDED: 100,
        }

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=5), max_size=4),
                st.sampled_from(["transfer", "read", "overwrite", "discard"]),
            ),
            max_size=100,
        )
    )
    def test_conservation(self, events):
        """useful + redundant + pending == everything ever transferred."""
        rmt = RmtClassifier()
        transferred = 0
        for indices, action in events:
            if action == "transfer":
                for index in indices:
                    rmt.on_transfer(index, 10, H2D, TransferReason.PREFETCH)
                    transferred += 10
            elif action == "read":
                rmt.on_reads(_blocks(*indices))
            elif action == "overwrite":
                rmt.on_overwrites(_blocks(*indices))
            else:
                rmt.on_discards(_blocks(*indices))
            assert (
                rmt.useful_bytes + rmt.redundant_bytes + rmt.pending_bytes
                == transferred
            )
        rmt.finalize()
        assert rmt.useful_bytes + rmt.redundant_bytes == transferred


class TestCounters:
    def test_bump_and_read(self):
        counters = Counters()
        counters.bump("x")
        counters.bump("x", 4)
        assert counters["x"] == 5
        assert counters["missing"] == 0
        assert "x" in counters
        assert "missing" not in counters

    def test_monotonic(self):
        with pytest.raises(ValueError):
            Counters().bump("x", -1)

    def test_items_sorted_and_as_dict(self):
        counters = Counters()
        counters.bump("b")
        counters.bump("a", 2)
        assert list(counters.items()) == [("a", 2), ("b", 1)]
        assert counters.as_dict() == {"a": 2, "b": 1}

    def test_reset(self):
        counters = Counters()
        counters.bump("x")
        counters.reset()
        assert counters["x"] == 0
