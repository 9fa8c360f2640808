"""Ground-truth oracle for the discard directive's data semantics.

§4.1 of the paper: after a discard, "a subsequent read by either a CPU or
a GPU can return either zeros or old data values. ... On the other hand, a
new value written after the discard operation ... is guaranteed to be seen
by a subsequent read, until a future discard operation is made."

The oracle tracks, independently of the driver, which blocks the program
has written since their last discard.  If the driver ever *loses* such a
write — the `UvmDiscardLazy` misuse of re-purposing a region without the
mandatory prefetch, followed by reclamation (§5.2) — the block becomes
*corrupted*: a later read would observe neither zeros-or-old-values nor
the guaranteed new value.  Tests run the oracle in strict mode, where a
corrupted read raises; experiments count events instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.driver.va_block import VaBlock
from repro.errors import DataCorruptionError


@dataclass(frozen=True)
class OracleEvent:
    """One semantics-relevant incident observed by the oracle."""

    time: float
    block_index: int
    kind: str  # "corruption" | "corrupted_read" | "read_after_discard"
    detail: str


class DataOracle:
    """Validates program reads against the §4.1 discard semantics.

    Args:
        strict: raise :class:`DataCorruptionError` the moment a read
            observes a corrupted block.  Non-strict mode records an event
            and lets the simulation continue (matching what real hardware
            would do: silently return wrong data).
    """

    __slots__ = ("strict", "events", "_corrupted", "_guaranteed")

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.events: List[OracleEvent] = []
        self._corrupted: Set[int] = set()
        #: Version of the newest guaranteed-visible write per block.
        self._guaranteed: Dict[int, int] = {}

    @property
    def corrupted_blocks(self) -> Set[int]:
        return set(self._corrupted)

    @property
    def corruption_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "corruption")

    @property
    def corrupted_read_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "corrupted_read")

    def record_writes(
        self, time: float, blocks: Iterable[VaBlock], reads: bool = False
    ) -> None:
        """The program wrote new values to ``blocks``, in touch order.

        Applies each block's ground-truth write (:meth:`VaBlock.record_write`)
        and makes its post-bump version the guaranteed-visible one; a write
        also heals a corrupted block.  With ``reads`` every touch is a
        read-modify-write whose read is validated before its write lands,
        so a block touched twice reads, writes, reads and writes again.
        """
        guaranteed = self._guaranteed
        corrupted = self._corrupted
        for block in blocks:
            index = block.index
            if reads and (block.discarded or index in corrupted):
                self.validate_read(time, block)
            block.record_write()
            guaranteed[index] = block.version
            corrupted.discard(index)

    def record_discards(self, time: float, blocks: Iterable[VaBlock]) -> None:
        """The program discarded ``blocks``: no value is guaranteed anymore.

        A discard also waives any pending corruption: with nothing
        guaranteed, no later read can observe a violation from a past
        lost write.
        """
        guaranteed = self._guaranteed
        corrupted = self._corrupted
        for block in blocks:
            guaranteed.pop(block.index, None)
            corrupted.discard(block.index)

    def record_data_loss(self, time: float, block: VaBlock, detail: str) -> None:
        """The driver dropped data the program was guaranteed to see.

        Called by the eviction path when it reclaims, as discarded, a block
        that the program has re-written without notifying the driver.
        """
        if block.index in self._guaranteed:
            self._corrupted.add(block.index)
            self.events.append(
                OracleEvent(time, block.index, "corruption", detail)
            )

    def validate_reads(self, time: float, blocks: Iterable[VaBlock]) -> None:
        """:meth:`validate_read` for each of ``blocks``, in touch order.

        A clean read (live block, not corrupted) records nothing, so only
        discarded or corrupted blocks reach :meth:`validate_read`.
        """
        corrupted = self._corrupted
        for block in blocks:
            if block.discarded or block.index in corrupted:
                self.validate_read(time, block)

    def validate_read(self, time: float, block: VaBlock) -> None:
        """Check a program read of ``block`` against the semantics.

        Reads of discarded-but-unwritten blocks are *legal* (they may see
        zeros or stale values); reads of corrupted blocks are violations.
        """
        if block.index in self._corrupted:
            event = OracleEvent(
                time,
                block.index,
                "corrupted_read",
                "read observed data lost by a lazy-discard reclamation",
            )
            self.events.append(event)
            if self.strict:
                raise DataCorruptionError(
                    f"block {block.index}: {event.detail} at t={time:.6f}s"
                )
        elif block.discarded and not block.written_since_discard:
            # Legal but worth surfacing: the program consumes unspecified
            # values.  Usually a sign the discard call was misplaced.
            self.events.append(
                OracleEvent(
                    time,
                    block.index,
                    "read_after_discard",
                    "read of a discarded block before any new write",
                )
            )
