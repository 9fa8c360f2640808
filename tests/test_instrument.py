"""Tests for the instrumentation: traffic recorder, RMT classifier,
counters and the event log."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.instrument import (
    Counters,
    EventLog,
    RmtClassifier,
    TrafficRecorder,
    TransferReason,
)
from repro.interconnect import TransferDirection

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


class TestRmtClassifier:
    def _transfer(self, rmt, block, nbytes=100):
        rmt.on_transfer(block, nbytes, H2D, TransferReason.FAULT_MIGRATION)

    def test_read_resolves_useful(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_read(1)
        assert rmt.useful_bytes == 100
        assert rmt.redundant_bytes == 0

    def test_overwrite_resolves_redundant(self):
        """§3.1: transferred then overwritten before read = redundant."""
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_overwrite(1)
        assert rmt.redundant_bytes == 100
        assert rmt.useful_bytes == 0

    def test_discard_resolves_redundant(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_discard(1)
        assert rmt.redundant_bytes == 100

    def test_chain_resolved_together(self):
        """An evict + re-migrate chain resolves as one unit."""
        rmt = RmtClassifier()
        rmt.on_transfer(1, 100, D2H, TransferReason.EVICTION)
        rmt.on_transfer(1, 100, H2D, TransferReason.FAULT_MIGRATION)
        rmt.on_overwrite(1)
        assert rmt.redundant_bytes == 200

    def test_read_then_new_transfer_independent(self):
        rmt = RmtClassifier()
        self._transfer(rmt, 1)
        rmt.on_read(1)
        self._transfer(rmt, 1, nbytes=50)
        rmt.on_discard(1)
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
        rmt.on_read(99)
        rmt.on_overwrite(98)
        rmt.on_discard(97)
        assert rmt.classified_bytes == 0

    def test_redundant_fraction(self):
        rmt = RmtClassifier()
        assert rmt.redundant_fraction == 0.0
        self._transfer(rmt, 1)
        rmt.on_read(1)
        self._transfer(rmt, 2)
        rmt.on_discard(2)
        assert rmt.redundant_fraction == pytest.approx(0.5)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(["transfer", "read", "overwrite", "discard"]),
            ),
            max_size=100,
        )
    )
    def test_conservation(self, events):
        """useful + redundant + pending == everything ever transferred."""
        rmt = RmtClassifier()
        transferred = 0
        for block, action in events:
            if action == "transfer":
                rmt.on_transfer(block, 10, H2D, TransferReason.PREFETCH)
                transferred += 10
            elif action == "read":
                rmt.on_read(block)
            elif action == "overwrite":
                rmt.on_overwrite(block)
            else:
                rmt.on_discard(block)
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


class TestEventLog:
    def test_disabled_by_default(self):
        log = EventLog()
        log.log(0.0, "evict", "msg")
        assert len(log) == 0

    def test_enabled_records(self):
        log = EventLog(enabled=True)
        log.log(1.0, "evict", "one")
        log.log(2.0, "zero", "two")
        assert len(log) == 2
        assert [e.category for e in log] == ["evict", "zero"]
        assert log.entries("zero")[0].message == "two"

    def test_bounded_capacity(self):
        log = EventLog(capacity=3, enabled=True)
        for i in range(10):
            log.log(float(i), "c", str(i))
        assert [e.message for e in log] == ["7", "8", "9"]

    def test_truncation_reports_dropped_count(self):
        log = EventLog(capacity=4, enabled=True)
        assert log.capacity == 4
        for i in range(4):
            log.log(float(i), "c", str(i))
        assert log.dropped == 0
        for i in range(4, 11):
            log.log(float(i), "c", str(i))
        assert log.dropped == 7
        assert len(log) == 4

    def test_unbounded_never_drops(self):
        log = EventLog(capacity=None, enabled=True)
        for i in range(10_001):
            log.log(float(i), "c", "m")
        assert log.dropped == 0
        assert len(log) == 10_001

    def test_disabled_logging_does_not_drop(self):
        log = EventLog(capacity=1, enabled=False)
        for i in range(5):
            log.log(float(i), "c", "m")
        assert log.dropped == 0
        assert len(log) == 0

    def test_clear(self):
        log = EventLog(enabled=True)
        log.log(0.0, "c", "m")
        log.clear()
        assert len(log) == 0

    def test_clear_resets_dropped(self):
        log = EventLog(capacity=1, enabled=True)
        log.log(0.0, "c", "a")
        log.log(1.0, "c", "b")
        assert log.dropped == 1
        log.clear()
        assert log.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_event_log_capacity_validated(self):
        from repro.driver.config import UvmDriverConfig

        with pytest.raises(ValueError):
            UvmDriverConfig(event_log_capacity=0).validate()
        UvmDriverConfig(event_log_capacity=None).validate()

    def test_str_rendering(self):
        log = EventLog(enabled=True)
        log.log(1e-6, "evict", "reclaimed")
        assert "evict" in str(log.entries()[0])
