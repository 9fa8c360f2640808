"""`UvmDiscard`: the eager-unmapping implementation (§5.1).

NVIDIA GPUs of the paper's generation have no per-PTE access or dirty
bits, so the only way for the driver to learn that a discarded page was
re-written is to make the re-access *fault*: `UvmDiscard` therefore
eagerly destroys every virtual mapping of the discarded region.  That
buys ease of use — no further program cooperation needed — at the price
of:

- GPU PTE-clear commands plus a TLB-invalidation round-trip over the
  interconnect per call (charged here, batched per GPU), and
- unnecessary GPU page faults when the region is re-used by the same GPU
  (the §7.3 Radix-sort 3.9x pathology), best mitigated by prefetching
  after the discard (§4.2).
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.core.discard import DiscardManager
from repro.driver.va_block import CPU, VaBlock


class UvmDiscard(DiscardManager):
    """Eager discard: destroy mappings so re-access faults."""

    name = "UvmDiscard"

    def _discard_blocks(self, blocks: Sequence[VaBlock], cost: float) -> float:
        return self.driver.discard_blocks_eager(blocks, cost)

    def _batch_epilogue(self, blocks: Sequence[VaBlock]) -> float:
        """One TLB invalidation round-trip per GPU whose PTEs were cleared.

        §5.1: "UvmDiscard may need to send GPU PTE clearing and GPU TLB
        invalidation commands via CPU-GPU interconnects and wait for the
        GPU to acknowledge their completion."  The shootdown is batched:
        one invalidation covers all blocks unmapped on that GPU in this
        call.
        """
        cost = 0.0
        invalidated: Set[str] = set()
        for block in blocks:
            # After the transitions ran, GPU-resident blocks sit in the
            # discarded queue with their residency still recorded.
            res = block.residency
            if res is not None and res != CPU and res not in invalidated:
                invalidated.add(res)
                cost += self.driver.gpu_page_table(res).tlb_invalidate()
        return cost
