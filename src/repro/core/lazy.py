"""`UvmDiscardLazy`: the software-dirty-bit implementation (§5.2).

Instead of destroying mappings, the driver keeps a *software* dirty bit
per block and the discard simply clears it — orders of magnitude cheaper
than GPU PTE manipulation.  Because the hardware cannot set the bit back
on a write, the program **must** notify the driver before re-purposing a
discarded region, by issuing the (already best-practice) prefetch: the
prefetch sets the dirty bits, or allocates/zeroes/maps fresh memory if
the region was already reclaimed.

Re-purposing without the prefetch is a semantics violation: the driver
may reclaim pages that hold new values.  The simulator's eviction path
detects this (`lazy_misuses` counter / :class:`DiscardSemanticsError` in
strict mode) and the data oracle marks the block corrupted, which is what
real hardware would silently let happen.

`UvmDiscardLazy` thus "demonstrates the potential benefits of enhancing
the GPU hardware" — per-PTE dirty bits would give `UvmDiscard`'s ease of
use with this implementation's performance.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.discard import DiscardManager
from repro.driver.va_block import VaBlock


class UvmDiscardLazy(DiscardManager):
    """Lazy discard: clear software dirty bits, keep mappings intact."""

    name = "UvmDiscardLazy"

    def _discard_blocks(self, blocks: Sequence[VaBlock], cost: float) -> float:
        return self.driver.discard_blocks_lazy(blocks, cost)
