"""Per-GPU physical page queues (§5.5).

NVIDIA's UVM driver keeps three queues per GPU — free, unused (FIFO of
reclaimable leftover frames) and used (pseudo-LRU of everything in use).
The paper adds a fourth: the **discarded FIFO queue**, which keeps
discarded frames around as long as possible so that re-access by the same
GPU can revive them without re-zeroing (§5.5/§5.7), while still letting
the eviction process reclaim them *without a memory transfer* before it
ever has to swap a used page out.

Eviction order (modified by the paper): free → unused → **discarded** →
least-recently-used side of used.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Container, Deque, Iterable, Iterator, Optional

from repro.driver.va_block import VaBlock
from repro.errors import SimulationError
from repro.memsim.frames import Frame


class _BlockQueue:
    """Queued va_blocks keyed by index; eviction takes from the head."""

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: "OrderedDict[int, VaBlock]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, block: VaBlock) -> bool:
        return block.index in self._order

    def __iter__(self) -> Iterator[VaBlock]:
        return iter(self._order.values())

    def pop_unlocked(self, locked: Container[int]) -> Optional[VaBlock]:
        """Remove and return the block nearest the head whose index is
        not in ``locked``, or ``None`` when there is none.

        Locked blocks keep their places, as the real driver's eviction
        skips a va_block whose lock it cannot take.
        """
        order = self._order
        for index in order:
            if index not in locked:
                return order.pop(index)
        return None


class UsedQueue(_BlockQueue):
    """Pseudo-LRU queue of in-use va_blocks.

    A fault or prefetch moves the block to the most-recently-used side
    (§5.5); eviction reclaims from the least-recently-used side.  Under
    the "fifo" eviction policy a touch leaves an already-queued block in
    place, so eviction follows insertion order.
    """

    __slots__ = ("_refresh",)

    def __init__(self, eviction_policy: str = "lru") -> None:
        super().__init__()
        self.set_policy(eviction_policy)

    def set_policy(self, eviction_policy: str) -> None:
        """Apply a driver ``eviction_policy`` ("lru" or "fifo")."""
        self._refresh = eviction_policy != "fifo"

    def touch(self, block: VaBlock) -> None:
        """:meth:`touch_all` for one block."""
        self.touch_all((block,))

    def touch_all(self, blocks: Iterable[VaBlock]) -> None:
        """Insert each of ``blocks``, in order, at the MRU side.

        A block already queued moves to the MRU side, except under the
        "fifo" policy, where it keeps its place.
        """
        order = self._order
        move_to_end = order.move_to_end
        refresh = self._refresh
        for block in blocks:
            index = block.index
            if index not in order:
                order[index] = block
            elif refresh:
                move_to_end(index)

    def remove(self, block: VaBlock) -> None:
        if self._order.pop(block.index, None) is None:
            raise SimulationError(f"{block!r} not in used queue")

    def discard(self, block: VaBlock) -> None:
        """Remove if present; no-op otherwise."""
        self._order.pop(block.index, None)

    def pop_lru(self) -> VaBlock:
        """Remove and return the least-recently-used block."""
        if not self._order:
            raise SimulationError("pop_lru() on empty used queue")
        _index, block = self._order.popitem(last=False)
        return block

    def peek_lru(self) -> Optional[VaBlock]:
        if not self._order:
            return None
        index = next(iter(self._order))
        return self._order[index]


class DiscardedQueue(_BlockQueue):
    """FIFO of discarded-but-not-yet-reclaimed va_blocks (§5.5).

    FIFO order "maximizes the time to keep each discarded GPU page in the
    queue so that they have a higher chance to be recovered" on re-access.
    """

    __slots__ = ()

    def push(self, block: VaBlock) -> None:
        if block.index in self._order:
            raise SimulationError(f"{block!r} already in discarded queue")
        self._order[block.index] = block

    def remove(self, block: VaBlock) -> None:
        self.remove_all((block,))

    def remove_all(self, blocks: Iterable[VaBlock]) -> None:
        """Remove each of ``blocks``; raises on the first one not queued."""
        pop = self._order.pop
        for block in blocks:
            if pop(block.index, None) is None:
                raise SimulationError(f"{block!r} not in discarded queue")

    def pop_oldest(self) -> VaBlock:
        """Reclaim the oldest discarded block (FIFO head)."""
        if not self._order:
            raise SimulationError("pop_oldest() on empty discarded queue")
        _index, block = self._order.popitem(last=False)
        return block


class GpuPageQueues:
    """All four page queues of one GPU.

    The *free* queue is implicit in the frame allocator's free count; the
    others hold explicit state.  The unused FIFO holds frames detached from
    any block (e.g. after a managed buffer is freed) that can be handed out
    again with no transfer and no unmapping.
    """

    __slots__ = ("gpu", "unused", "used", "discarded")

    def __init__(self, gpu: str, eviction_policy: str = "lru") -> None:
        self.gpu = gpu
        self.unused: Deque[Frame] = deque()
        self.used = UsedQueue(eviction_policy)
        self.discarded = DiscardedQueue()

    def forget(self, block: VaBlock) -> None:
        """Drop ``block`` from whichever queue holds it (buffer free path)."""
        self.used.discard(block)
        if block in self.discarded:
            self.discarded.remove(block)

    def resident_blocks(self) -> int:
        """Blocks currently occupying GPU frames via either queue."""
        return len(self.used) + len(self.discarded)
