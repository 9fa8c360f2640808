"""Discard directive base machinery shared by both implementations.

Handles the parts §4/§5.4 define independently of eager-vs-lazy:

- resolving a virtual address range to the driver's 2 MiB va_blocks,
- the alignment policy — "the discard operation prefers full 2 MiB-aligned
  virtual regions and sometimes ignores partial ones" (§5.4), so partial
  blocks are skipped (and counted) rather than splitting 2 MiB mappings,
- skipping blocks that are already discarded (idempotence),
- per-call cost accounting, returned as a :class:`DiscardOutcome`.

Subclasses implement :meth:`_discard_blocks` (one driver call applying
the batch's state transitions and adding their costs) and
:meth:`_batch_epilogue` (per-call costs such as the eager variant's TLB
invalidation round-trips).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generator, Iterable, List, Sequence, Tuple

from repro.driver.driver import UvmDriver
from repro.driver.va_block import VaBlock
from repro.vm.layout import VaRange


@dataclass(frozen=True)
class DiscardOutcome:
    """Result of one discard API call."""

    requested_blocks: int
    discarded_blocks: int
    ignored_partial_blocks: int
    already_discarded_blocks: int
    time_cost: float
    #: Blocks whose 2 MiB mapping was split by a partial discard (only
    #: with the §5.4 policy disabled).
    split_blocks: int = 0


class DiscardManager(abc.ABC):
    """Applies the discard directive to block sets through the driver."""

    #: Human-readable implementation name ("UvmDiscard"/"UvmDiscardLazy").
    name: str = "abstract"

    def __init__(self, driver: UvmDriver) -> None:
        self.driver = driver
        self.calls = 0
        self.total_cost = 0.0

    # -- range resolution (§5.4 policy) ---------------------------------

    def select_blocks(
        self, blocks: Sequence[VaBlock], rng: VaRange
    ) -> Tuple[List[VaBlock], int, List[VaBlock]]:
        """Blocks of ``blocks`` the directive applies to within ``rng``.

        Returns ``(targets, ignored_partial, split)``.  With the driver's
        ``require_full_blocks`` policy (the paper's default), a block is a
        target only if ``rng`` covers all of its used bytes; partially
        covered blocks are ignored to avoid splitting 2 MiB mappings.
        With the policy disabled, partially covered blocks are *split*
        instead: their live remainder is preserved but every future
        migration of the block moves in 4 KiB pieces (§5.4's cost
        argument).
        """
        targets: List[VaBlock] = []
        ignored = 0
        split: List[VaBlock] = []
        rng_start = rng.start
        rng_end = rng.end
        require_full = self.driver.config.require_full_blocks
        for block in blocks:
            block_start = block.va_start
            block_end = block.va_end
            if block_start >= rng_end or rng_start >= block_end:
                continue
            if rng_start <= block_start and block_end <= rng_end:
                targets.append(block)
            elif require_full:
                ignored += 1
            else:
                split.append(block)
        return targets, ignored, split

    # -- the directive ----------------------------------------------------

    def discard(self, blocks: Iterable[VaBlock]) -> Generator:
        """Simulation process applying the directive to ``blocks``.

        ``blocks`` are distinct va_blocks.  Returns a
        :class:`DiscardOutcome` (via the process return value).
        """
        blocks = list(blocks)
        driver = self.driver
        # A concurrent eviction (oversubscription churn, or an injected
        # pressure spike / ECC retirement) may hold a target mid-flight —
        # popped from its queue with residency still set.  Take the
        # driver's per-block residency locks before mutating, exactly as
        # the real driver takes the va_block lock.  Already-discarded
        # blocks are read-only here and are not locked, keeping the
        # idempotent re-discard wait-free.
        targets = [b for b in blocks if not b.discarded]
        if not driver.try_lock_blocks(targets):
            yield from driver.lock_blocks(targets)
        tracer = driver.tracer
        started = driver.env.now if tracer.enabled else 0.0
        try:
            # Skip blocks re-discarded while this call waited.
            live = [b for b in targets if not b.discarded]
            cost = self._discard_blocks(
                live, driver.config.discard_command_overhead
            )
            discarded = len(live)
            skipped = len(blocks) - discarded
            cost += self._batch_epilogue(blocks)
            self.calls += 1
            self.total_cost += cost
            if cost:
                yield driver.env.timeout(cost)
        finally:
            driver.unlock_blocks(targets)
        if tracer.enabled:
            tracer.span(
                "driver/discard",
                self.name,
                started,
                driver.env.now,
                category="discard",
                args={"requested": len(blocks), "discarded": discarded},
            )
        return DiscardOutcome(
            requested_blocks=len(blocks),
            discarded_blocks=discarded,
            ignored_partial_blocks=0,
            already_discarded_blocks=skipped,
            time_cost=cost,
        )

    def discard_range(self, blocks: Sequence[VaBlock], rng: VaRange) -> Generator:
        """Apply the directive to ``rng``, honouring the §5.4 policy."""
        targets, ignored, split = self.select_blocks(blocks, rng)
        split_cost = 0.0
        for block in split:
            if not block.split:
                block.split = True
                # Splitting rewrites the block's PTEs: one unmap plus the
                # small-page re-population on the owning processor.
                if block.on_gpu:
                    table = self.driver.gpu_page_table(block.residency)  # type: ignore[arg-type]
                    split_cost += table.costs.unmap_block
                    split_cost += table.costs.map_block
        if split_cost:
            yield self.driver.env.timeout(split_cost)
        outcome: DiscardOutcome = yield from self.discard(targets)
        return DiscardOutcome(
            requested_blocks=outcome.requested_blocks + ignored + len(split),
            discarded_blocks=outcome.discarded_blocks,
            ignored_partial_blocks=ignored,
            already_discarded_blocks=outcome.already_discarded_blocks,
            time_cost=outcome.time_cost + split_cost,
            split_blocks=len(split),
        )

    # -- subclass hooks -----------------------------------------------------

    @abc.abstractmethod
    def _discard_blocks(self, blocks: Sequence[VaBlock], cost: float) -> float:
        """Transition live ``blocks`` to discarded in one driver call;
        return ``cost`` plus each block's time cost, added in order."""

    def _batch_epilogue(self, blocks: Sequence[VaBlock]) -> float:
        """Per-call cost applied after the per-block work (default none)."""
        return 0.0
