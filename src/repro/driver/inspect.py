"""Read-only structured views of UVM driver state.

The public inspection API: :meth:`repro.driver.driver.UvmDriver.inspect`
returns a :class:`DriverInspection` built from these frozen dataclasses,
so validators, tests and tools can examine driver state without reaching
into private attributes (``_gpus``, ``_blocks``, ``_inflight``).

Every view is an immutable *snapshot*: mutating the driver after
``inspect()`` does not change a previously returned inspection, and the
views expose no handles back into live driver objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class GpuView:
    """One GPU's allocator, queue and page-table state."""

    name: str
    #: Current pool size in 2 MiB frames (shrinks under ECC retirement).
    capacity_frames: int
    free_frames: int
    used_frames: int
    #: Frames permanently lost to ECC retirement (not counted in capacity).
    retired_frames: int
    #: Frames parked on the unused FIFO (detached from any block).
    unused_queue_frames: int
    #: Block indices on the used queue, LRU side first.
    used_queue_blocks: Tuple[int, ...]
    #: Block indices on the discarded queue, FIFO (oldest) side first.
    discarded_queue_blocks: Tuple[int, ...]
    #: Block indices with a live PTE in this GPU's page table.
    mapped_blocks: FrozenSet[int]


@dataclass(frozen=True)
class BlockView:
    """One va_block's residency and discard state."""

    index: int
    used_bytes: int
    residency: Optional[str]
    has_frame: bool
    frame_owner: Optional[str]
    frame_allocated: bool
    populated: bool
    discarded: bool
    #: ``"eager"`` / ``"lazy"`` / ``None`` — mirrors ``DiscardKind.value``.
    discard_kind: Optional[str]
    sw_dirty: bool
    written_since_discard: bool


@dataclass(frozen=True)
class DriverInspection:
    """A complete point-in-time snapshot of driver-visible state."""

    gpus: Dict[str, GpuView]
    blocks: Dict[int, BlockView]
    #: Block indices with a residency operation currently in flight.
    inflight: FrozenSet[int]
    #: Block indices mapped in the CPU page table.
    cpu_mapped: FrozenSet[int]

    def gpu(self, name: str) -> GpuView:
        return self.gpus[name]

    def block(self, index: int) -> BlockView:
        return self.blocks[index]
