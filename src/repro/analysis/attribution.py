"""Byte attribution: who moved every byte, and was the move wasted.

Built entirely from post-run driver state — the retained
:class:`~repro.instrument.traffic.TransferRecord` list (each record
tagged at record time with its per-buffer ``segments`` and the workload
``phase`` that was active) and the per-record fate tallies of the
:class:`~repro.instrument.rmt.RmtClassifier`.  Requires the runtime to
have been built with ``UvmDriverConfig(keep_transfer_records=True)``;
on the benchmark hot path no records exist and every function here
degrades to an empty report.

The conservation contract (every attributed view re-sums to the
recorder's running totals) is enforced by
:func:`repro.harness.validation.collect_conservation_problems`, which
the online validator and the chaos oracle run mid-flight.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.instrument.rmt import (
    FATE_DISCARDED,
    FATE_OVERWRITTEN,
    FATE_UNUSED,
    FATE_USEFUL,
)
from repro.instrument.traffic import TransferDirection, TransferReason

__all__ = [
    "RAW_BUCKET",
    "per_buffer_transfer_totals",
    "attribution_report",
    "attribution_summary",
]

#: Bucket name for transfers that move no va_blocks (``raw_transfer``).
RAW_BUCKET = "(raw)"

_FATES = (FATE_USEFUL, FATE_OVERWRITTEN, FATE_DISCARDED, FATE_UNUSED)
_REDUNDANT_FATES = (FATE_OVERWRITTEN, FATE_DISCARDED, FATE_UNUSED)

_DIRECTION_KEYS = {
    TransferDirection.HOST_TO_DEVICE: "h2d",
    TransferDirection.DEVICE_TO_HOST: "d2h",
    TransferDirection.DEVICE_TO_DEVICE: "d2d",
}

_REFETCH_REASONS = (TransferReason.FAULT_MIGRATION, TransferReason.PREFETCH)


def _segments(record):
    """``(name, nbytes)`` attribution of one record.

    Records tagged at record time carry exact per-buffer ``segments``;
    blockless transfers (``raw_transfer``) land in :data:`RAW_BUCKET`.
    """
    return record.segments or ((RAW_BUCKET, record.nbytes),)


def per_buffer_transfer_totals(runtime) -> Dict[str, Dict[str, int]]:
    """Per-buffer H2D/D2H/D2D byte totals from retained transfer records.

    Requires the runtime to have been built with
    ``UvmDriverConfig(keep_transfer_records=True)``.  Each record's
    bytes are split across the buffers it actually moved (its
    record-time ``segments``), so a coalesced span crossing a buffer
    boundary is charged to both owners; raw (blockless) transfers land
    in the ``"(raw)"`` bucket.  The buckets always re-sum to the
    driver's running totals (a chaos-oracle invariant).
    """
    totals: Dict[str, Dict[str, int]] = {}
    for record in runtime.driver.traffic.records:
        key = _DIRECTION_KEYS[record.direction]
        for name, nbytes in _segments(record):
            bucket = totals.get(name)
            if bucket is None:
                bucket = totals[name] = {"h2d": 0, "d2h": 0, "d2d": 0}
            bucket[key] += nbytes
    return totals


def _fate_split(tally: Dict[str, int]) -> Dict[str, int]:
    out = {fate: tally.get(fate, 0) for fate in _FATES}
    out["redundant"] = sum(out[f] for f in _REDUNDANT_FATES)
    return out


def _group_row() -> Dict[str, int]:
    return {"h2d": 0, "d2h": 0, "d2d": 0, "useful": 0, "redundant": 0}


def attribution_report(runtime, summary=None) -> Dict[str, Any]:
    """Full byte-attribution and waste-analysis report for one run.

    Returns a plain-JSON dict::

        {
          "complete": bool,       # a record exists for every transfer
          "totals": {...},        # recorder running totals
          "by_buffer": {name: {h2d, d2h, d2d, useful, overwritten,
                               discarded, unused, redundant}},
          "by_phase":  {phase: {h2d, d2h, d2d, useful, redundant}},
          "by_reason": {reason: {h2d, d2h, d2d, useful, redundant}},
          "waste": {...},         # aggregate fates + derived causes
        }

    Fate classification follows the RMT rules (§3): a transferred
    byte is *useful* once read at its destination, *overwritten* /
    *discarded* / *unused* otherwise.  Two derived causes decompose
    the waste further:

    - ``dead_writeback_bytes`` — eviction-reason bytes whose moved
      data was never read again: writebacks of dead data.
    - ``thrash_refetch_bytes`` — fault/prefetch H2D bytes re-fetching
      buffer bytes previously evicted, the re-fetch half of a thrash
      cycle (byte-granular per buffer, so a lower bound on true
      block-level thrash).

    ``complete``, ``by_buffer`` and ``waste`` are those of
    :func:`attribution_summary`; pass the run's ``summary`` (its
    ``ExperimentResult.attribution``) to reuse it instead of building
    it again.  The report then shares those dicts with it.
    """
    if summary is None:
        summary = attribution_summary(runtime)
    traffic = runtime.driver.traffic
    record_fates = runtime.driver.rmt.record_fates
    by_phase: Dict[str, Dict[str, int]] = {}
    by_reason: Dict[str, Dict[str, int]] = {}

    for record in traffic.records:
        key = _DIRECTION_KEYS[record.direction]
        nbytes = record.nbytes
        tally = record_fates.get(id(record))
        if tally:
            useful = tally.get(FATE_USEFUL, 0)
            redundant = sum(tally.values()) - useful
        else:
            useful = redundant = 0
        row = by_phase.get(record.phase)
        if row is None:
            row = by_phase[record.phase] = _group_row()
        row[key] += nbytes
        row["useful"] += useful
        row["redundant"] += redundant
        row = by_reason.get(record.reason.value)
        if row is None:
            row = by_reason[record.reason.value] = _group_row()
        row[key] += nbytes
        row["useful"] += useful
        row["redundant"] += redundant

    return {
        "complete": summary["complete"],
        "totals": {
            "bytes_h2d": traffic.bytes_h2d,
            "bytes_d2h": traffic.bytes_d2h,
            "bytes_d2d": traffic.bytes_d2d,
            "transfer_count": traffic.transfer_count,
            "block_bytes": traffic.block_bytes,
            "raw_bytes": traffic.total_bytes - traffic.block_bytes,
        },
        "by_buffer": summary["by_buffer"],
        "by_phase": by_phase,
        "by_reason": by_reason,
        "waste": summary["waste"],
    }


def attribution_summary(runtime) -> Dict[str, Any]:
    """Compact attribution summary for sweep results and ``/run``.

    The ``complete`` flag, the ``waste`` block and the per-buffer
    direction/fate totals of :func:`attribution_report` — small enough
    to ride inside every cached
    :class:`~repro.harness.results.ExperimentResult`.  One walk over the
    records, with no dict copied or built per record.
    """
    traffic = runtime.driver.traffic
    rmt = runtime.driver.rmt
    records = traffic.records
    record_fates = rmt.record_fates
    by_buffer: Dict[str, Dict[str, int]] = {}
    dead_writeback = 0
    thrash_refetch = 0
    evicted_outstanding: Dict[str, int] = {}

    for record in records:
        key = _DIRECTION_KEYS[record.direction]
        reason = record.reason
        if reason is TransferReason.EVICTION:
            tally = record_fates.get(id(record))
            if tally:
                useful = tally.get(FATE_USEFUL, 0)
                dead_writeback += sum(tally.values()) - useful
        writeback = reason is TransferReason.EVICTION and key == "d2h"
        refetch = key == "h2d" and reason in _REFETCH_REASONS
        for name, nbytes in _segments(record):
            bucket = by_buffer.get(name)
            if bucket is None:
                bucket = by_buffer[name] = {"h2d": 0, "d2h": 0, "d2d": 0}
            bucket[key] += nbytes
            if writeback:
                evicted_outstanding[name] = (
                    evicted_outstanding.get(name, 0) + nbytes
                )
            elif refetch:
                outstanding = evicted_outstanding.get(name, 0)
                if outstanding:
                    hit = min(outstanding, nbytes)
                    thrash_refetch += hit
                    evicted_outstanding[name] = outstanding - hit

    # Every fate credit lands in one record tally and in its owner's
    # buffer tally, so the buffer tallies also give the fate totals.
    fate_totals = {fate: 0 for fate in _FATES}
    for name, tally in rmt.buffer_fates.items():
        bucket = by_buffer.get(name)
        if bucket is None:
            bucket = by_buffer[name] = {"h2d": 0, "d2h": 0, "d2d": 0}
        bucket.update(_fate_split(tally))
        for fate, nbytes in tally.items():
            fate_totals[fate] += nbytes
    for bucket in by_buffer.values():
        if "useful" not in bucket:
            bucket.update(_fate_split({}))

    classified = sum(fate_totals.values())
    useful = fate_totals[FATE_USEFUL]
    return {
        "complete": bool(records) and len(records) == traffic.transfer_count,
        "waste": {
            "useful_bytes": useful,
            "overwritten_bytes": fate_totals[FATE_OVERWRITTEN],
            "discarded_bytes": fate_totals[FATE_DISCARDED],
            "unused_bytes": fate_totals[FATE_UNUSED],
            "redundant_bytes": classified - useful,
            "pending_bytes": rmt.pending_record_bytes,
            "dead_writeback_bytes": dead_writeback,
            "thrash_refetch_bytes": thrash_refetch,
            "redundant_fraction": (
                (classified - useful) / classified if classified else 0.0
            ),
        },
        "by_buffer": by_buffer,
    }
