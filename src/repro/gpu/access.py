"""Kernel access patterns.

A pattern orders a buffer's va_blocks into *waves* — the granularity at
which the executor interleaves fault handling with compute.  Patterns are
what distinguish a streaming kernel (sequential, prefetch-friendly) from
the irregular access of Radix-sort's partitioning, where "the GPU does not
follow a deterministic pattern to access parallel columns of data" (§7.3)
and oversubscribed kernels thrash.

All patterns are deterministic: irregular orders come from a seeded
pseudo-random shuffle so simulations replay identically.
"""

from __future__ import annotations

import abc
import random
from typing import List, Sequence

from repro.driver.va_block import VaBlock
from repro.errors import ConfigurationError


class AccessPattern(abc.ABC):
    """Strategy producing a per-wave ordering of a kernel operand's blocks."""

    @abc.abstractmethod
    def waves(self, blocks: Sequence[VaBlock], num_waves: int) -> List[List[VaBlock]]:
        """Split ``blocks`` into ``num_waves`` ordered touch lists.

        Every block must appear in at least one wave; patterns modelling
        data re-use may include a block in several waves.
        """


def _chunk(blocks: Sequence[VaBlock], num_waves: int) -> List[List[VaBlock]]:
    """Split into ``num_waves`` contiguous, near-equal chunks."""
    if num_waves < 1:
        raise ConfigurationError(f"num_waves must be >= 1, got {num_waves}")
    if num_waves == 1:
        # The whole list is the one wave; a list argument is not copied.
        return [blocks if isinstance(blocks, list) else list(blocks)]
    n = len(blocks)
    if n == 0:
        return [[] for _ in range(num_waves)]
    out: List[List[VaBlock]] = []
    base, extra = divmod(n, num_waves)
    start = 0
    for i in range(num_waves):
        size = base + (1 if i < extra else 0)
        out.append(list(blocks[start : start + size]))
        start += size
    return out


class SequentialPattern(AccessPattern):
    """Streaming access: the buffer is swept once, front to back.

    Matches FIR's sliding window and the dense layer sweeps of the deep
    learning kernels — the pattern prefetching works best for.
    """

    def waves(self, blocks: Sequence[VaBlock], num_waves: int) -> List[List[VaBlock]]:
        return _chunk(blocks, num_waves)


class StridedPattern(AccessPattern):
    """Strided sweep: wave *i* touches blocks ``i, i+W, i+2W, ...``.

    Models column-major access over a row-major layout; each wave spans
    the whole buffer, so an oversubscribed working set thrashes even
    though every block is touched exactly once.
    """

    def waves(self, blocks: Sequence[VaBlock], num_waves: int) -> List[List[VaBlock]]:
        if num_waves < 1:
            raise ConfigurationError(f"num_waves must be >= 1, got {num_waves}")
        return [list(blocks[i::num_waves]) for i in range(num_waves)]


class IrregularPattern(AccessPattern):
    """Data-dependent scatter/gather with re-use (§7.3 Radix-sort).

    Each of ``passes`` full sweeps touches every block once, in a
    deterministic pseudo-random order that differs per pass.  When the
    footprint exceeds device memory, consecutive passes re-fault blocks
    evicted by the previous one — the GPU thrashing that dominates
    Radix-sort at oversubscription and that the paper notes discard cannot
    fix (§7.3).
    """

    def __init__(self, passes: int = 1, seed: int = 0x5EED) -> None:
        if passes < 1:
            raise ConfigurationError(f"passes must be >= 1, got {passes}")
        self.passes = passes
        self.seed = seed

    def waves(self, blocks: Sequence[VaBlock], num_waves: int) -> List[List[VaBlock]]:
        if num_waves < 1:
            raise ConfigurationError(f"num_waves must be >= 1, got {num_waves}")
        rng = random.Random(self.seed)
        sequence: List[VaBlock] = []
        for _ in range(self.passes):
            order = list(blocks)
            rng.shuffle(order)
            sequence.extend(order)
        return _chunk(sequence, num_waves)
