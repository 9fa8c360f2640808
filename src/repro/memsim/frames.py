"""Physical frames and per-processor frame allocators.

A :class:`Frame` is one 2 MiB physical chunk — the unit in which NVIDIA's
UVM driver allocates, zeroes, maps and evicts GPU memory (§5.4).  The
:class:`FrameAllocator` hands out frames until the processor's capacity is
exhausted; the UVM driver layers its eviction machinery on top, while the
No-UVM baseline surfaces exhaustion directly as
:class:`~repro.errors.OutOfMemoryError` (the paper's Listing 4 failure
mode).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import OutOfMemoryError, SimulationError
from repro.units import BIG_PAGE


class Frame:
    """One 2 MiB physical chunk on a specific processor.

    Attributes:
        owner: processor identifier the frame belongs to (e.g. ``"gpu0"``).
        index: allocator-unique index, stable for the frame's lifetime.
        prepared: whether every 4 KiB page of the frame has been zeroed or
            migrated over since allocation.  §5.7: discarded frames cannot
            be assumed prepared, and unprepared frames must be re-zeroed
            before re-use.
    """

    __slots__ = ("owner", "index", "prepared", "_allocated")

    def __init__(self, owner: str, index: int) -> None:
        self.owner = owner
        self.index = index
        self.prepared = False
        self._allocated = True

    @property
    def allocated(self) -> bool:
        return self._allocated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alloc" if self._allocated else "free"
        return f"<Frame {self.owner}#{self.index} {state} prepared={self.prepared}>"


class FrameAllocator:
    """Allocates 2 MiB :class:`Frame` objects from a fixed-size pool.

    The allocator itself never evicts; when it is out of frames it raises
    :class:`OutOfMemoryError` and leaves recovery to the caller (the UVM
    driver's eviction process, or nothing in the No-UVM baseline).
    """

    def __init__(self, owner: str, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity: {capacity_bytes}")
        self.owner = owner
        self.capacity_bytes = capacity_bytes
        self.capacity_frames = capacity_bytes // BIG_PAGE
        self._free = self.capacity_frames
        self._next_index = itertools.count()
        self.retired_frames = 0
        #: Frames currently held by :meth:`reserve` (the oversubscription
        #: occupant / co-tenant allocations), distinguishable from ECC
        #: retirements so reservations can be audited and given back.
        self.reserved_frames = 0

    @property
    def free_frames(self) -> int:
        """Frames currently available without eviction."""
        return self._free

    @property
    def used_frames(self) -> int:
        return self.capacity_frames - self._free

    @property
    def used_bytes(self) -> int:
        return self.used_frames * BIG_PAGE

    @property
    def free_bytes(self) -> int:
        return self._free * BIG_PAGE

    def allocate(self) -> Frame:
        """Take one frame from the pool.

        Raises:
            OutOfMemoryError: when the pool is exhausted.
        """
        if self._free <= 0:
            raise OutOfMemoryError(
                f"{self.owner}: out of physical memory "
                f"({self.capacity_frames} frames of 2 MiB all in use)"
            )
        self._free -= 1
        return Frame(self.owner, next(self._next_index))

    def free(self, frame: Frame) -> None:
        """Return ``frame`` to the pool."""
        if frame.owner != self.owner:
            raise SimulationError(
                f"frame owned by {frame.owner} freed on {self.owner}"
            )
        if not frame._allocated:
            raise SimulationError(f"double free of {frame!r}")
        frame._allocated = False
        frame.prepared = False
        self._free += 1
        if self._free > self.capacity_frames:
            raise SimulationError(f"{self.owner}: freed more frames than capacity")

    def reserve(self, nframes: int) -> None:
        """Permanently remove ``nframes`` from the pool.

        Used by the oversubscription harness to model the paper's "idle GPU
        program that occupies specific amounts of GPU memory" (§7.1).
        """
        if nframes < 0:
            raise ValueError(f"negative reservation: {nframes}")
        if nframes > self._free:
            raise OutOfMemoryError(
                f"{self.owner}: cannot reserve {nframes} frames, only "
                f"{self._free} free"
            )
        self._free -= nframes
        self.capacity_frames -= nframes
        self.capacity_bytes -= nframes * BIG_PAGE
        self.reserved_frames += nframes

    def retire(self, nframes: int = 1) -> None:
        """Permanently remove ``nframes`` free frames from the pool.

        Models ECC page retirement: a frame that produced uncorrectable
        errors is taken out of service for the remainder of the run.  The
        caller (the UVM driver) must first vacate the frame — migrate or
        reclaim whatever block it backs and :meth:`free` it — so only
        *free* frames can be retired here.  Unlike :meth:`reserve` there
        is no undo, and retirements are tracked separately so inspection
        can distinguish ECC loss from an oversubscription occupant.
        """
        if nframes < 0:
            raise ValueError(f"negative retirement: {nframes}")
        if nframes > self._free:
            raise OutOfMemoryError(
                f"{self.owner}: cannot retire {nframes} frames, only "
                f"{self._free} free"
            )
        self._free -= nframes
        self.capacity_frames -= nframes
        self.capacity_bytes -= nframes * BIG_PAGE
        self.retired_frames += nframes

    def unreserve(self, nframes: int) -> None:
        """Return ``nframes`` previously reserved frames to the pool.

        The `cudaFree` path of explicit device allocations.
        """
        if nframes < 0:
            raise ValueError(f"negative unreservation: {nframes}")
        if nframes > self.reserved_frames:
            raise SimulationError(
                f"{self.owner}: unreserve of {nframes} frames exceeds the "
                f"{self.reserved_frames} currently reserved"
            )
        self.reserved_frames -= nframes
        self._free += nframes
        self.capacity_frames += nframes
        self.capacity_bytes += nframes * BIG_PAGE
