"""Per-processor page tables with mapping-cost accounting.

The UVM driver keeps coherent page tables on the CPU and each GPU, with
every physical page exclusively mapped by one of them (§2.2).  NVIDIA GPUs
of the paper's era lack per-PTE access/dirty bits (§5), which is the
hardware limitation that forces `UvmDiscard` to *eagerly destroy* GPU
mappings: clearing PTEs and invalidating GPU TLBs over the interconnect is
what makes the eager implementation expensive, so this module meters those
operations precisely.

Two residency representations with one API live here:

- :class:`BitmapPageTable` — the driver's table: a residency slab
  (``bytearray`` with one byte per 2 MiB block at a sliding origin;
  byte-per-block measured faster than bit-packing because scalar lookups
  need no shift/mask arithmetic, and a byte per block is still ~30x
  denser than a set entry) with a memcpy-cheap deepcopy, which is what
  makes engine snapshots fork quickly.
- :class:`PageTable` — a plain set-of-indices table, kept only as the
  reference that ``tests/test_vectorized_differential.py`` checks the
  bitmap table against (same costs, counters, errors and mapped sets).

The driver's residency batches map and unmap one block per call: they
interleave each block's CPU unmap, GPU map and zero-fill costs, so a
batch adds its costs block by block in the same order.  Three batch
calls serve one caller each: :meth:`~BitmapPageTable.unmap_blocks`
clears an eviction run's GPU PTEs and :meth:`~BitmapPageTable.map_blocks`
maps its writebacks on the CPU (the run knows each wait in advance from
:attr:`~BitmapPageTable.map_cost`, :attr:`~BitmapPageTable.unmap_cost`
and :attr:`~BitmapPageTable.unmap_tlb_cost`), and
:meth:`~BitmapPageTable.unmapped` is the executor's fault probe over one
kernel operand's wave.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Set

import numpy as np

from repro.errors import MappingError
from repro.units import us


class PteState(enum.Enum):
    """State of a 2 MiB block's entry in one processor's page table."""

    UNMAPPED = "unmapped"
    MAPPED = "mapped"


@dataclass
class MappingCosts:
    """Time costs of page-table manipulation on one processor.

    Defaults are calibrated so that a batched eager discard costs ~1.05 us
    per 2 MiB block, matching Table 2 (UvmDiscard: 4 us at 2 MB down to
    70 us at 128 MB, i.e. amortized batching).
    """

    #: Establishing one 2 MiB PTE (page-table write + fence).
    map_block: float = field(default=us(0.8))
    #: Clearing one 2 MiB PTE.
    unmap_block: float = field(default=us(1.0))
    #: One TLB invalidation round-trip over the interconnect.  GPUs must be
    #: asked via the host-to-GPU channel and their acknowledgement awaited
    #: (§5.1); CPUs invalidate locally for much less.
    tlb_invalidate: float = field(default=us(1.5))
    #: Extra fixed cost per batched PTE operation command.
    batch_overhead: float = field(default=us(0.2))


class PageTable:
    """One processor's view of the unified address space, at 2 MiB granularity.

    Tracks which va_blocks (by block index) this processor currently maps,
    and accumulates counters for maps, unmaps and TLB shootdowns so the
    benchmarks can attribute eager-discard overhead.
    """

    __slots__ = (
        "processor",
        "costs",
        "_mapped",
        "_map_cost",
        "_unmap_cost",
        "_unmap_tlb_cost",
        "map_count",
        "unmap_count",
        "tlb_invalidations",
    )

    def __init__(self, processor: str, costs: Optional[MappingCosts] = None) -> None:
        self.processor = processor
        self.costs = costs or MappingCosts()
        # A set of mapped block indices: residency checks are the single
        # hottest query in the simulator, and a set membership test beats
        # a dict-of-enum lookup plus identity compare.
        self._mapped: Set[int] = set()
        # Pre-summed per-operation costs; MappingCosts is fixed for the
        # table's lifetime, and chasing three dataclass attributes per
        # map/unmap showed up in the fault-service profile.
        self._map_cost = self.costs.map_block + self.costs.batch_overhead
        self._unmap_cost = self.costs.unmap_block
        self._unmap_tlb_cost = self.costs.unmap_block + self.costs.tlb_invalidate
        self.map_count = 0
        self.unmap_count = 0
        self.tlb_invalidations = 0

    def state(self, block_index: int) -> PteState:
        if block_index in self._mapped:
            return PteState.MAPPED
        return PteState.UNMAPPED

    def is_mapped(self, block_index: int) -> bool:
        return block_index in self._mapped

    def unmapped(self, blocks: Iterable) -> list:
        """The va_blocks of ``blocks`` this table does not map, in order."""
        mapped = self._mapped
        return [block for block in blocks if block.index not in mapped]

    @property
    def mapped_blocks(self) -> int:
        return len(self._mapped)

    def mapped_indices(self) -> "frozenset[int]":
        """Immutable snapshot of every mapped block index.

        The public accessor behind the driver inspection API; callers
        must never mutate ``_mapped`` directly.
        """
        return frozenset(self._mapped)

    @property
    def map_cost(self) -> float:
        """The cost of one :meth:`map_block`."""
        return self._map_cost

    @property
    def unmap_cost(self) -> float:
        """The cost of one :meth:`unmap_block` with no TLB invalidation."""
        return self._unmap_cost

    @property
    def unmap_tlb_cost(self) -> float:
        """The cost of one :meth:`unmap_block` with its TLB invalidation."""
        return self._unmap_tlb_cost

    def map_block(self, block_index: int) -> float:
        """Establish the 2 MiB mapping; returns the time cost in seconds."""
        mapped = self._mapped
        if block_index in mapped:
            raise MappingError(
                f"{self.processor}: block {block_index} is already mapped"
            )
        mapped.add(block_index)
        self.map_count += 1
        return self._map_cost

    def unmap_block(self, block_index: int, invalidate_tlb: bool = True) -> float:
        """Destroy the 2 MiB mapping; returns the time cost in seconds.

        ``invalidate_tlb=False`` models batched shootdowns where one
        invalidation covers many unmaps; the caller then charges
        :meth:`tlb_invalidate` once per batch.
        """
        mapped = self._mapped
        if block_index not in mapped:
            raise MappingError(f"{self.processor}: block {block_index} not mapped")
        mapped.discard(block_index)
        self.unmap_count += 1
        if invalidate_tlb:
            self.tlb_invalidations += 1
            return self._unmap_tlb_cost
        return self._unmap_cost

    def map_blocks(self, indices: Sequence[int]) -> float:
        """:meth:`map_block` each of ``indices``, in order; returns the
        cost, :attr:`map_cost` per block.  A block already mapped raises
        after the ones before it are mapped."""
        for index in indices:
            self.map_block(index)
        return self._map_cost * len(indices)

    def unmap_blocks(self, indices: Sequence[int]) -> float:
        """:meth:`unmap_block` each of ``indices``, in order, with its TLB
        invalidation; returns the cost, :attr:`unmap_tlb_cost` per block.
        A block not mapped raises after the ones before it are unmapped."""
        for index in indices:
            self.unmap_block(index)
        return self._unmap_tlb_cost * len(indices)

    def tlb_invalidate(self) -> float:
        """Account one TLB invalidation; returns its time cost in seconds."""
        self.tlb_invalidations += 1
        return self.costs.tlb_invalidate

    def reset_counters(self) -> None:
        self.map_count = 0
        self.unmap_count = 0
        self.tlb_invalidations = 0


#: Bitmap slabs grow in whole bytes; keep the origin byte-aligned.
_SLAB_ALIGN = 8


class BitmapPageTable:
    """Residency-slab page table: one byte per 2 MiB block.

    Block indices are global (``va // BIG_PAGE`` of a 64-bit VA base), so
    the slab covers ``[origin, origin + len(slab))`` and re-anchors lazily
    on first use.  The driver's working sets are contiguous va ranges, so
    the slab stays dense and small (one byte per block versus one ~32-byte
    set entry per block), and ``deepcopy`` — the heart of
    ``EngineSnapshot.fork()`` — degenerates to a bytearray copy.

    A byte (not a bit) per block: scalar ``is_mapped``/``map_block`` are
    the hottest driver operations, and byte indexing needs no Python-level
    shift/mask arithmetic — measured faster than both bit-packing and the
    set-based reference.
    """

    __slots__ = (
        "processor",
        "costs",
        "_origin",
        "_bits",
        "_limit",
        "_count",
        "_map_cost",
        "_unmap_cost",
        "_unmap_tlb_cost",
        "map_count",
        "unmap_count",
        "tlb_invalidations",
    )

    def __init__(self, processor: str, costs: Optional[MappingCosts] = None) -> None:
        self.processor = processor
        self.costs = costs or MappingCosts()
        self._origin = 0  # re-anchored on first map while the slab is empty
        self._bits = bytearray()
        self._limit = 0  # == len(self._bits); cached for the hot range check
        self._count = 0
        self._map_cost = self.costs.map_block + self.costs.batch_overhead
        self._unmap_cost = self.costs.unmap_block
        self._unmap_tlb_cost = self.costs.unmap_block + self.costs.tlb_invalidate
        self.map_count = 0
        self.unmap_count = 0
        self.tlb_invalidations = 0

    # -- slab management -------------------------------------------------

    def _ensure(self, index: int) -> int:
        """Grow the slab to cover ``index``; returns the slab offset."""
        if self._limit == 0:
            # First touch anchors the slab (aligned so left growth pads
            # whole aligned chunks).
            self._origin = (index // _SLAB_ALIGN) * _SLAB_ALIGN
            self._bits = bytearray(_SLAB_ALIGN)
        origin = self._origin
        if index < origin:
            new_origin = (index // _SLAB_ALIGN) * _SLAB_ALIGN
            self._bits = bytearray(origin - new_origin) + self._bits
            self._origin = origin = new_origin
        offset = index - origin
        if offset >= len(self._bits):
            self._bits.extend(bytes(offset + 1 - len(self._bits)))
        self._limit = len(self._bits)
        return offset

    # -- API (same contract as PageTable) --------------------------------

    def state(self, block_index: int) -> PteState:
        if self.is_mapped(block_index):
            return PteState.MAPPED
        return PteState.UNMAPPED

    def is_mapped(self, block_index: int) -> bool:
        # _limit is 0 until the slab is anchored, so the range check alone
        # also covers the unanchored state.
        offset = block_index - self._origin
        return 0 <= offset < self._limit and self._bits[offset] != 0

    def unmapped(self, blocks: Iterable) -> list:
        """The va_blocks of ``blocks`` this table does not map, in order."""
        bits = self._bits
        origin = self._origin
        limit = self._limit
        return [
            block
            for block in blocks
            if not (0 <= (offset := block.index - origin) < limit and bits[offset])
        ]

    @property
    def mapped_blocks(self) -> int:
        return self._count

    def mapped_indices(self) -> "frozenset[int]":
        """Immutable snapshot of every mapped block index."""
        if self._count == 0:
            return frozenset()
        arr = np.frombuffer(self._bits, dtype=np.uint8)
        return frozenset((np.nonzero(arr)[0] + self._origin).tolist())

    @property
    def map_cost(self) -> float:
        """The cost of one :meth:`map_block`."""
        return self._map_cost

    @property
    def unmap_cost(self) -> float:
        """The cost of one :meth:`unmap_block` with no TLB invalidation."""
        return self._unmap_cost

    @property
    def unmap_tlb_cost(self) -> float:
        """The cost of one :meth:`unmap_block` with its TLB invalidation."""
        return self._unmap_tlb_cost

    def map_block(self, block_index: int) -> float:
        """Establish the 2 MiB mapping; returns the time cost in seconds."""
        # In-slab fast path; _ensure only on first touch or growth.
        offset = block_index - self._origin
        if not 0 <= offset < self._limit:
            offset = self._ensure(block_index)
        bits = self._bits
        if bits[offset]:
            raise MappingError(
                f"{self.processor}: block {block_index} is already mapped"
            )
        bits[offset] = 1
        self._count += 1
        self.map_count += 1
        return self._map_cost

    def unmap_block(self, block_index: int, invalidate_tlb: bool = True) -> float:
        """Destroy the 2 MiB mapping; returns the time cost in seconds."""
        offset = block_index - self._origin
        if not 0 <= offset < self._limit or not self._bits[offset]:
            raise MappingError(f"{self.processor}: block {block_index} not mapped")
        self._bits[offset] = 0
        self._count -= 1
        self.unmap_count += 1
        if invalidate_tlb:
            self.tlb_invalidations += 1
            return self._unmap_tlb_cost
        return self._unmap_cost

    def map_blocks(self, indices: Sequence[int]) -> float:
        """:meth:`map_block` each of ``indices``, in order; returns the
        cost, :attr:`map_cost` per block.  A block already mapped raises
        after the ones before it are mapped."""
        done = 0
        try:
            for index in indices:
                offset = index - self._origin
                if not 0 <= offset < self._limit:
                    offset = self._ensure(index)
                bits = self._bits
                if bits[offset]:
                    raise MappingError(
                        f"{self.processor}: block {index} is already mapped"
                    )
                bits[offset] = 1
                done += 1
        finally:
            self._count += done
            self.map_count += done
        return self._map_cost * done

    def unmap_blocks(self, indices: Sequence[int]) -> float:
        """:meth:`unmap_block` each of ``indices``, in order, with its TLB
        invalidation; returns the cost, :attr:`unmap_tlb_cost` per block.
        A block not mapped raises after the ones before it are unmapped."""
        bits = self._bits
        origin = self._origin
        limit = self._limit
        done = 0
        try:
            for index in indices:
                offset = index - origin
                if not 0 <= offset < limit or not bits[offset]:
                    raise MappingError(
                        f"{self.processor}: block {index} not mapped"
                    )
                bits[offset] = 0
                done += 1
        finally:
            self._count -= done
            self.unmap_count += done
            self.tlb_invalidations += done
        return self._unmap_tlb_cost * done

    def tlb_invalidate(self) -> float:
        """Account one TLB invalidation; returns its time cost in seconds."""
        self.tlb_invalidations += 1
        return self.costs.tlb_invalidate

    def reset_counters(self) -> None:
        self.map_count = 0
        self.unmap_count = 0
        self.tlb_invalidations = 0


