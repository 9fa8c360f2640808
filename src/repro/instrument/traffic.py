"""Interconnect traffic accounting.

Every byte that crosses the CPU-GPU link is recorded here with its
direction and *reason* — fault-driven migration, explicit prefetch,
capacity eviction, or an explicit memcpy from the No-UVM baselines.  The
per-reason breakdown is what lets the benchmarks show not just that
discard reduces traffic (Tables 4/6/8) but *which* traffic it removes
(evictions of dead data and the re-migrations they cause).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.interconnect.link import TransferDirection
from repro.units import to_gb


class TransferReason(enum.Enum):
    """Why a transfer crossed the interconnect."""

    FAULT_MIGRATION = "fault"
    PREFETCH = "prefetch"
    EVICTION = "eviction"
    MEMCPY = "memcpy"
    SWAP = "swap"  # manual swapping by the LMS-style baseline
    REMOTE_ACCESS = "remote"  # cache-coherent loads/stores (§2.3)

    @property
    def short(self) -> str:
        return self.value


@dataclass(frozen=True)
class TransferRecord:
    """One DMA command's worth of traffic.

    ``segments`` attributes the record's bytes to the owning managed
    buffers at *record time* — ``((buffer_name, nbytes), ...)`` in block
    order, with consecutive same-buffer blocks merged — so attribution
    survives buffer frees and block splits that would confuse a post-hoc
    index walk.  ``phase`` names the workload phase the transfer served:
    ``"setup"`` before the first kernel, then the most recently launched
    kernel's name.  Both are only populated when records are retained.
    """

    time: float
    direction: TransferDirection
    nbytes: int
    reason: TransferReason
    first_block: Optional[int] = None
    num_blocks: int = 0
    segments: Tuple[Tuple[str, int], ...] = ()
    phase: str = "setup"


def _segments_for(blocks) -> Tuple[Tuple[str, int], ...]:
    """Per-buffer byte segments for a span of blocks, in block order."""
    segments: List[List] = []
    last_name: Optional[str] = None
    for block in blocks:
        owner = block.buffer
        name = owner.name if owner is not None else "(unknown)"
        if name == last_name:
            segments[-1][1] += block.used_bytes
        else:
            segments.append([name, block.used_bytes])
            last_name = name
    return tuple((name, nbytes) for name, nbytes in segments)


class TrafficRecorder:
    """Accumulates transfer records and per-direction/per-reason totals."""

    #: Class-level default so instances unpickled from snapshots taken
    #: before the attribution layer still read as phase "setup".
    phase: str = "setup"

    def __init__(self, keep_records: bool = False) -> None:
        self._keep_records = keep_records
        self.records: List[TransferRecord] = []
        self.phase = "setup"
        # Keyed by the enum *values* (plain strings): enum members hash
        # through a Python-level ``__hash__``, which showed up as one of
        # the hottest frames in the fault-service profile.  Strings hash
        # in C and cache the result.
        self._by_direction: Dict[str, int] = {d.value: 0 for d in TransferDirection}
        self._by_reason: Dict[str, int] = {r.value: 0 for r in TransferReason}
        self.transfer_count = 0
        #: Bytes moved by block-attributed transfers (``num_blocks > 0``),
        #: i.e. exactly the transfers the RMT classifier also tracks.
        #: The conservation invariant ties the two tallies together:
        #: ``block_bytes == rmt.classified_bytes + rmt.pending_bytes``.
        self.block_bytes = 0

    def record(
        self,
        time: float,
        direction: TransferDirection,
        nbytes: int,
        reason: TransferReason,
        first_block: Optional[int] = None,
        num_blocks: int = 0,
        blocks: Optional[Sequence] = None,
    ) -> Optional[TransferRecord]:
        """Account one transfer; returns the record only when retained.

        With ``keep_records=False`` (every benchmark run) no
        :class:`TransferRecord` is constructed at all — the dataclass
        ``__init__`` was pure overhead on the fault-service hot path.
        ``blocks`` (the va_blocks the transfer moved, in span order) is
        likewise only inspected when records are retained, where it is
        folded into per-buffer attribution segments.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self._by_direction[direction._value_] += nbytes
        self._by_reason[reason._value_] += nbytes
        self.transfer_count += 1
        if num_blocks > 0:
            self.block_bytes += nbytes
        if self._keep_records:
            segments = _segments_for(blocks) if blocks is not None else ()
            rec = TransferRecord(
                time, direction, nbytes, reason, first_block, num_blocks,
                segments, self.phase,
            )
            self.records.append(rec)
            return rec
        return None

    def record_run(
        self,
        times: Sequence[float],
        direction: TransferDirection,
        reason: TransferReason,
        blocks: Sequence,
    ) -> Optional[List[TransferRecord]]:
        """Account a run of single-block commands, one per va_block of
        ``blocks`` (its ``used_bytes``), the i-th ending at ``times[i]``:
        what one :meth:`record` call per block would account.  Returns
        their records, in block order, only when retained."""
        nbytes = 0
        for block in blocks:
            nbytes += block.used_bytes
        self._by_direction[direction._value_] += nbytes
        self._by_reason[reason._value_] += nbytes
        self.transfer_count += len(blocks)
        self.block_bytes += nbytes
        if not self._keep_records:
            return None
        phase = self.phase
        records = [
            TransferRecord(
                time, direction, block.used_bytes, reason, block.index, 1,
                _segments_for((block,)), phase,
            )
            for time, block in zip(times, blocks)
        ]
        self.records.extend(records)
        return records

    @property
    def bytes_h2d(self) -> int:
        return self._by_direction[TransferDirection.HOST_TO_DEVICE.value]

    @property
    def bytes_d2h(self) -> int:
        return self._by_direction[TransferDirection.DEVICE_TO_HOST.value]

    @property
    def bytes_d2d(self) -> int:
        return self._by_direction[TransferDirection.DEVICE_TO_DEVICE.value]

    @property
    def total_bytes(self) -> int:
        return self.bytes_h2d + self.bytes_d2h + self.bytes_d2d

    @property
    def total_gb(self) -> float:
        """Total traffic in decimal GB — the unit of the paper's tables."""
        return to_gb(self.total_bytes)

    def bytes_for(self, reason: TransferReason) -> int:
        return self._by_reason[reason.value]

    def breakdown(self) -> Dict[str, float]:
        """Per-reason traffic in GB, for reports."""
        return {r: to_gb(n) for r, n in self._by_reason.items() if n}

    def reset(self) -> None:
        # Deliberately leaves ``phase`` alone: begin_measurement() resets
        # counters mid-run, and the phase tracks executor state, not the
        # measurement window.
        self.records.clear()
        for d in self._by_direction:
            self._by_direction[d] = 0
        for r in self._by_reason:
            self._by_reason[r] = 0
        self.transfer_count = 0
        self.block_bytes = 0
