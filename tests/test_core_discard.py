"""Tests for the discard managers (the paper's contribution layer)."""

import pytest

from repro.core import UvmDiscard, UvmDiscardLazy
from repro.core.discard import DiscardOutcome
from repro.driver import UvmDriver, UvmDriverConfig, VaBlock
from repro.engine import Environment
from repro.instrument.traffic import TransferReason
from repro.interconnect import pcie_gen4
from repro.units import BIG_PAGE, MIB
from repro.vm.layout import VaRange


def make_setup(require_full_blocks=True, capacity_mib=32):
    env = Environment()
    driver = UvmDriver(
        env, pcie_gen4(), UvmDriverConfig(require_full_blocks=require_full_blocks)
    )
    driver.register_gpu("gpu0", capacity_mib * MIB)
    return env, driver


def make_blocks(driver, count, start_index=100):
    blocks = [VaBlock(start_index + i, BIG_PAGE) for i in range(count)]
    driver.register_blocks(blocks)
    return blocks


def run(env, generator):
    return env.run(until=env.process(generator))


def gpu_populate(env, driver, blocks):
    run(env, driver.prefetch(blocks, "gpu0"))
    from repro.access import AccessMode

    for block in blocks:
        driver.note_access(block, AccessMode.WRITE)


class TestSelectBlocks:
    def test_full_cover_selects_all(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 4)
        manager = UvmDiscard(driver)
        rng = VaRange(blocks[0].index * BIG_PAGE, 4 * BIG_PAGE)
        targets, ignored, split = manager.select_blocks(blocks, rng)
        assert targets == blocks
        assert ignored == 0
        assert split == []

    def test_partial_blocks_ignored(self):
        """§5.4: ragged edges are skipped, not split."""
        env, driver = make_setup()
        blocks = make_blocks(driver, 4)
        manager = UvmDiscard(driver)
        rng = VaRange(blocks[0].index * BIG_PAGE + MIB, 3 * BIG_PAGE)
        targets, ignored, split = manager.select_blocks(blocks, rng)
        assert targets == blocks[1:3]
        assert ignored == 2
        assert split == []

    def test_policy_disabled_splits_partials(self):
        env, driver = make_setup(require_full_blocks=False)
        blocks = make_blocks(driver, 4)
        manager = UvmDiscard(driver)
        rng = VaRange(blocks[0].index * BIG_PAGE + MIB, 3 * BIG_PAGE)
        targets, ignored, split = manager.select_blocks(blocks, rng)
        assert targets == blocks[1:3]  # fully covered middle blocks
        assert ignored == 0
        assert split == [blocks[0], blocks[3]]  # ragged edges get split

    def test_disjoint_range_selects_nothing(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 2)
        manager = UvmDiscard(driver)
        targets, ignored, split = manager.select_blocks(blocks, VaRange(0, BIG_PAGE))
        assert targets == [] and ignored == 0 and split == []


class TestDiscardOutcome:
    def test_outcome_counts(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 3)
        gpu_populate(env, driver, blocks)
        manager = UvmDiscard(driver)
        outcome = run(env, manager.discard(blocks))
        assert isinstance(outcome, DiscardOutcome)
        assert outcome.discarded_blocks == 3
        assert outcome.already_discarded_blocks == 0
        assert outcome.time_cost > 0

    def test_rediscard_is_idempotent(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 2)
        gpu_populate(env, driver, blocks)
        manager = UvmDiscard(driver)
        run(env, manager.discard(blocks))
        outcome = run(env, manager.discard(blocks))
        assert outcome.discarded_blocks == 0
        assert outcome.already_discarded_blocks == 2

    def test_discard_range_reports_ignored(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 4)
        gpu_populate(env, driver, blocks)
        manager = UvmDiscard(driver)
        rng = VaRange(blocks[0].index * BIG_PAGE + MIB, 3 * BIG_PAGE)
        outcome = run(env, manager.discard_range(blocks, rng))
        assert outcome.discarded_blocks == 2
        assert outcome.ignored_partial_blocks == 2

    def test_manager_accumulates_stats(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 2)
        gpu_populate(env, driver, blocks)
        manager = UvmDiscardLazy(driver)
        run(env, manager.discard(blocks))
        assert manager.calls == 1
        assert manager.total_cost > 0


class TestEagerVsLazyCost:
    def test_eager_charges_tlb_per_gpu_once(self):
        env, driver = make_setup()
        blocks = make_blocks(driver, 8)
        gpu_populate(env, driver, blocks)
        table = driver.gpu_page_table("gpu0")
        before = table.tlb_invalidations
        manager = UvmDiscard(driver)
        run(env, manager.discard(blocks))
        # One shootdown for the whole batch, not one per block.
        assert table.tlb_invalidations == before + 1
        assert table.unmap_count == 8

    def test_lazy_discard_is_much_cheaper(self):
        env, driver = make_setup()
        eager_blocks = make_blocks(driver, 8, start_index=100)
        lazy_blocks = make_blocks(driver, 8, start_index=300)
        gpu_populate(env, driver, eager_blocks + lazy_blocks)
        eager_outcome = run(env, UvmDiscard(driver).discard(eager_blocks))
        lazy_outcome = run(env, UvmDiscardLazy(driver).discard(lazy_blocks))
        assert lazy_outcome.time_cost < 0.5 * eager_outcome.time_cost

    def test_eager_cost_scales_with_blocks(self):
        """Table 2's UvmDiscard row: linear in block count."""
        env, driver = make_setup(capacity_mib=160)
        small = make_blocks(driver, 1, start_index=100)
        large = make_blocks(driver, 64, start_index=300)
        gpu_populate(env, driver, small + large)
        cost_small = run(env, UvmDiscard(driver).discard(small)).time_cost
        cost_large = run(env, UvmDiscard(driver).discard(large)).time_cost
        assert 30 * cost_small < cost_large / cost_small * cost_small * 64
        assert cost_large > 10 * cost_small

    def test_cpu_resident_eager_discard_cheaper_than_gpu(self):
        env, driver = make_setup()
        gpu_blocks = make_blocks(driver, 4, start_index=100)
        cpu_blocks = make_blocks(driver, 4, start_index=300)
        gpu_populate(env, driver, gpu_blocks)
        run(
            env,
            driver.make_resident_cpu(
                cpu_blocks, TransferReason.FAULT_MIGRATION, True
            ),
        )
        gpu_cost = run(env, UvmDiscard(driver).discard(gpu_blocks)).time_cost
        cpu_cost = run(env, UvmDiscard(driver).discard(cpu_blocks)).time_cost
        # CPU PTE teardown is local; GPU teardown crosses the interconnect.
        assert cpu_cost < gpu_cost


class TestNoDiscardedQueueCharges:
    """With ``discarded_queue_enabled=False`` a discard of GPU-resident
    blocks frees their frames at once.  Both variants then charge less
    than the page-table work they count.  Pinned as strict xfails: the
    fix changes the no-queue ablation's outputs, which the end-to-end
    reference pins."""

    def _discard_resident(self, manager_cls, queue):
        env = Environment()
        driver = UvmDriver(
            env, pcie_gen4(), UvmDriverConfig(discarded_queue_enabled=queue)
        )
        driver.register_gpu("gpu0", 32 * MIB)
        blocks = make_blocks(driver, 4)  # an 8 MiB buffer
        gpu_populate(env, driver, blocks)
        table = driver.gpu_page_table("gpu0")
        unmaps, tlbs = table.unmap_count, table.tlb_invalidations
        outcome = run(env, manager_cls(driver).discard(blocks))
        return (
            outcome.time_cost,
            table.unmap_count - unmaps,
            table.tlb_invalidations - tlbs,
            table.costs,
            driver.config,
        )

    @pytest.mark.xfail(
        strict=True,
        reason="the TLB charge tests on_gpu after the transition has "
        "already dropped the residency, so the cleared PTEs get no "
        "shootdown",
    )
    def test_eager_charges_a_shootdown_for_cleared_ptes(self):
        cost, unmaps, tlbs, _, _ = self._discard_resident(UvmDiscard, False)
        queued_cost, _, queued_tlbs, _, _ = self._discard_resident(
            UvmDiscard, True
        )
        assert unmaps == 4
        assert tlbs == queued_tlbs == 1
        assert cost == queued_cost

    @pytest.mark.xfail(
        strict=True,
        reason="the immediate reclaim unmaps with a TLB invalidation "
        "per block but adds none of their time to the discard's cost",
    )
    def test_lazy_charges_the_unmaps_it_counts(self):
        cost, unmaps, tlbs, costs, config = self._discard_resident(
            UvmDiscardLazy, False
        )
        assert unmaps == 4 and tlbs == 4
        expected = config.discard_command_overhead
        for _ in range(4):
            expected += config.lazy_dirty_clear_per_block
        expected += unmaps * costs.unmap_block + tlbs * costs.tlb_invalidate
        assert cost == pytest.approx(expected)
