"""Redundant-memory-transfer classification.

§3 defines an RMT as an automatic transfer "not needed for correctness":
the canonical case is a buffer that is migrated but then overwritten (or
discarded, or simply never touched) before any of the moved data is read.

The classifier keeps, per va_block, the list of transfers whose moved data
has not yet been *justified* by a read.  The program's subsequent action on
the block resolves the whole pending chain:

- a **read** (or read-modify-write) justifies every pending transfer of the
  block — the data had to survive each hop to be readable now;
- a full **overwrite** or a **discard** proves the moved data was dead, so
  every pending transfer was redundant;
- at the end of the run, still-unresolved transfers moved data that was
  never used again — also redundant.

This reproduces the driver instrumentation behind Figure 3, where the
"actually required" traffic of ResNet-53 is less than half of what UVM
moves.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.instrument.traffic import TransferRecord

#: Per-record waste causes (see :attr:`RmtClassifier.record_fates`).
FATE_USEFUL = "useful"
FATE_OVERWRITTEN = "overwritten"
FATE_DISCARDED = "discarded"
FATE_UNUSED = "unused"


class TransferFate(enum.Enum):
    """Resolution of a tracked transfer."""

    PENDING = "pending"
    USEFUL = "useful"
    REDUNDANT = "redundant"


class RmtClassifier:
    """Resolves per-block transfers to useful or redundant.

    A pending chain is stored as a plain list of byte counts: the
    classification outcome depends only on the *bytes* of each hop, so
    tracking direction/reason per hop (the original design) bought
    nothing and cost one object allocation per block transfer on the
    fault-service hot path.
    """

    __slots__ = (
        "_pending",
        "useful_bytes",
        "redundant_bytes",
        "_finalized",
        "_pending_records",
        "record_fates",
        "buffer_fates",
    )

    def __init__(self) -> None:
        self._pending: Dict[int, List[int]] = {}
        self.useful_bytes = 0
        self.redundant_bytes = 0
        self._finalized = False
        # Attribution mode (records retained): per-block chains of
        # (record, nbytes, owner) hops, resolved into per-record and
        # per-buffer fate tallies.  Record tallies are keyed by
        # id(record) — the recorder keeps every record alive, so ids are
        # stable for the run's lifetime.  Empty and untouched on the
        # benchmark hot path.
        self._pending_records: Dict[
            int, List[Tuple[TransferRecord, int, str]]
        ] = {}
        self.record_fates: Dict[int, Dict[str, int]] = {}
        self.buffer_fates: Dict[str, Dict[str, int]] = {}

    def on_transfers(
        self,
        blocks: Sequence,
        records: Optional[Sequence[TransferRecord]] = None,
    ) -> None:
        """Track one hop of each va_block of ``blocks``: its
        ``used_bytes`` moved by a migration, eviction or prefetch.

        ``records`` (when the recorder keeps records: the
        :class:`TransferRecord` each block's hop belongs to, in block
        order) enables per-record fate attribution alongside the
        aggregate tallies, and each block's buffer names the owner in
        the per-buffer waste tables.  It stays ``None`` on the benchmark
        hot path.
        """
        pending = self._pending
        for block in blocks:
            index = block.index
            chain = pending.get(index)
            if chain is None:
                pending[index] = [block.used_bytes]
            else:
                chain.append(block.used_bytes)
        if records is None:
            return
        pending_records = self._pending_records
        for block, record in zip(blocks, records):
            owner = "(unknown)" if block.buffer is None else block.buffer.name
            hop = (record, block.used_bytes, owner)
            rchain = pending_records.get(block.index)
            if rchain is None:
                pending_records[block.index] = [hop]
            else:
                rchain.append(hop)

    def _credit(self, block_index: int, fate: str) -> None:
        rchain = self._pending_records.pop(block_index, None)
        if not rchain:
            return
        fates = self.record_fates
        buffers = self.buffer_fates
        for record, nbytes, owner in rchain:
            tally = fates.get(id(record))
            if tally is None:
                fates[id(record)] = {fate: nbytes}
            else:
                tally[fate] = tally.get(fate, 0) + nbytes
            btally = buffers.get(owner)
            if btally is None:
                buffers[owner] = {fate: nbytes}
            else:
                btally[fate] = btally.get(fate, 0) + nbytes

    def on_reads(self, blocks: Iterable) -> None:
        """The program read each va_block of ``blocks``: every pending
        transfer of the block was necessary."""
        pending = self._pending
        if not pending:
            return
        for block in blocks:
            chain = pending.pop(block.index, None)
            if chain:
                self.useful_bytes += sum(chain)
                self._credit(block.index, FATE_USEFUL)

    def on_overwrites(self, blocks: Iterable) -> None:
        """The program fully overwrote each va_block of ``blocks`` before
        reading it: every pending transfer of the block was redundant."""
        self._resolve_redundant(blocks, FATE_OVERWRITTEN)

    def on_discards(self, blocks: Iterable) -> None:
        """The program discarded each va_block of ``blocks``: the data was
        dead, so every pending transfer of the block was redundant."""
        self._resolve_redundant(blocks, FATE_DISCARDED)

    def _resolve_redundant(self, blocks: Iterable, fate: str) -> None:
        pending = self._pending
        if not pending:
            return
        for block in blocks:
            chain = pending.pop(block.index, None)
            if chain:
                self.redundant_bytes += sum(chain)
                self._credit(block.index, fate)

    def _resolve(self, block_index: int, fate: TransferFate) -> None:
        chain = self._pending.pop(block_index, None)
        if not chain:
            return
        total = sum(chain)
        if fate is TransferFate.USEFUL:
            self.useful_bytes += total
            self._credit(block_index, FATE_USEFUL)
        else:
            self.redundant_bytes += total
            self._credit(block_index, FATE_UNUSED)

    def finalize(self) -> None:
        """Resolve everything still pending as redundant (never used)."""
        if self._finalized:
            return
        for block_index in list(self._pending):
            self._resolve(block_index, TransferFate.REDUNDANT)
        self._finalized = True

    @property
    def pending_bytes(self) -> int:
        """Bytes of tracked transfers not yet resolved useful/redundant."""
        return sum(sum(chain) for chain in self._pending.values())

    @property
    def pending_record_bytes(self) -> int:
        """Bytes of record-attributed hops not yet resolved."""
        return sum(
            nbytes
            for chain in self._pending_records.values()
            for _, nbytes, _ in chain
        )

    @property
    def classified_record_bytes(self) -> int:
        """Bytes of record-attributed hops resolved into fates."""
        return sum(
            sum(tally.values()) for tally in self.record_fates.values()
        )

    @property
    def classified_bytes(self) -> int:
        return self.useful_bytes + self.redundant_bytes

    @property
    def redundant_fraction(self) -> float:
        """Fraction of classified traffic that was redundant (0 if none)."""
        total = self.classified_bytes
        if total == 0:
            return 0.0
        return self.redundant_bytes / total
