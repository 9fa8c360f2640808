"""Behavioural tests of the UVM driver state machine.

These drive the driver directly (no CUDA runtime on top) so every
transition of Figures 1/2 and §5.3-§5.7 is observable in isolation.
"""

import pytest

from repro.access import AccessMode
from repro.driver import DiscardKind, UvmDriver, UvmDriverConfig, VaBlock
from repro.driver.va_block import CPU
from repro.engine import Environment
from repro.errors import (
    ConfigurationError,
    DiscardSemanticsError,
    OutOfMemoryError,
    SimulationError,
)
from repro.harness.validation import (
    check_transfer_conservation,
    collect_invariant_problems,
)
from repro.instrument.traffic import TransferReason
from repro.interconnect import pcie_gen4
from repro.memsim.zeroing import ZeroFillModel
from repro.units import BIG_PAGE, MIB, us


def make_driver(capacity_mib=8, **config_kwargs):
    env = Environment()
    driver = UvmDriver(env, pcie_gen4(), UvmDriverConfig(**config_kwargs))
    driver.register_gpu("gpu0", capacity_mib * MIB)
    return env, driver


def make_blocks(driver, count, start_index=1000):
    blocks = [VaBlock(start_index + i, BIG_PAGE) for i in range(count)]
    driver.register_blocks(blocks)
    return blocks


def run(env, generator):
    return env.run(until=env.process(generator))


def populate_cpu(env, driver, blocks):
    """Host first-touch + write, making the blocks live CPU data."""
    run(env, driver.make_resident_cpu(blocks, TransferReason.FAULT_MIGRATION, True))
    for block in blocks:
        driver.note_access(block, AccessMode.WRITE)


class TestRegistration:
    def test_duplicate_gpu_rejected(self):
        env, driver = make_driver()
        with pytest.raises(ConfigurationError):
            driver.register_gpu("gpu0", MIB)

    def test_cpu_name_reserved(self):
        env, driver = make_driver()
        with pytest.raises(ConfigurationError):
            driver.register_gpu(CPU, MIB)

    def test_unknown_gpu_rejected(self):
        env, driver = make_driver()
        with pytest.raises(ConfigurationError):
            driver.gpu_queues("gpu9")

    def test_block_double_registration_rejected(self):
        env, driver = make_driver()
        blocks = make_blocks(driver, 1)
        with pytest.raises(SimulationError):
            driver.register_blocks(blocks)

    def test_unregistered_block_lookup_rejected(self):
        env, driver = make_driver()
        with pytest.raises(SimulationError):
            driver.block(42)


class TestResidency:
    def test_first_touch_gpu_zero_fills_without_traffic(self):
        """Figure 1 ② via prefetch of never-touched memory."""
        env, driver = make_driver()
        blocks = make_blocks(driver, 2)
        run(env, driver.prefetch(blocks, "gpu0"))
        for block in blocks:
            assert block.residency == "gpu0"
            assert block.populated  # defined zeros
            assert driver.gpu_page_table("gpu0").is_mapped(block.index)
        assert driver.traffic.total_bytes == 0
        assert driver.counters["zeroed_blocks"] == 2

    def test_cpu_to_gpu_migration_moves_data(self):
        env, driver = make_driver()
        blocks = make_blocks(driver, 3)
        populate_cpu(env, driver, blocks)
        run(env, driver.prefetch(blocks, "gpu0"))
        assert driver.traffic.bytes_h2d == 3 * BIG_PAGE
        for block in blocks:
            assert block.residency == "gpu0"
            # Exclusive mapping (§2.2): the CPU PTE is gone.
            assert not driver.cpu_page_table.is_mapped(block.index)

    def test_gpu_to_cpu_fault_migration(self):
        env, driver = make_driver()
        blocks = make_blocks(driver, 2)
        run(env, driver.prefetch(blocks, "gpu0"))
        for block in blocks:
            driver.note_access(block, AccessMode.WRITE)
        run(
            env,
            driver.make_resident_cpu(
                blocks, TransferReason.FAULT_MIGRATION, charge_faults=True
            ),
        )
        assert driver.traffic.bytes_d2h == 2 * BIG_PAGE
        for block in blocks:
            assert block.on_cpu
            assert driver.cpu_page_table.is_mapped(block.index)
            assert not driver.gpu_page_table("gpu0").is_mapped(block.index)
        assert driver.counters["cpu_faulted_blocks"] == 2

    def test_fault_handler_costs_time(self):
        env, driver = make_driver()
        blocks = make_blocks(driver, 4)
        before = env.now
        run(env, driver.handle_gpu_faults("gpu0", blocks))
        assert env.now > before
        assert driver.counters["gpu_fault_batches"] == 1
        assert driver.counters["gpu_faulted_blocks"] == 4

    def test_empty_fault_batch_is_free(self):
        env, driver = make_driver()
        run(env, driver.handle_gpu_faults("gpu0", []))
        assert driver.counters["gpu_fault_batches"] == 0

    def test_prefetch_of_resident_blocks_updates_recency_only(self):
        """§7.5.1: the pure-overhead prefetch."""
        env, driver = make_driver()
        blocks = make_blocks(driver, 2)
        run(env, driver.prefetch(blocks, "gpu0"))
        zeroed = driver.counters["zeroed_blocks"]
        run(env, driver.prefetch(blocks, "gpu0"))
        assert driver.counters["prefetch_recency_only"] == 2
        assert driver.counters["zeroed_blocks"] == zeroed
        assert driver.traffic.total_bytes == 0

    def test_gpu_needs_fault(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        assert driver.gpu_needs_fault("gpu0", block)
        run(env, driver.prefetch([block], "gpu0"))
        assert not driver.gpu_needs_fault("gpu0", block)


class TestEviction:
    def test_lru_block_evicted_under_pressure(self):
        env, driver = make_driver(capacity_mib=4)  # 2 frames
        blocks = make_blocks(driver, 3)
        for block in blocks:
            run(env, driver.prefetch([block], "gpu0"))
            driver.note_access(block, AccessMode.WRITE)
        # The first block was LRU and got swapped to the host.
        assert blocks[0].on_cpu
        assert blocks[1].residency == "gpu0"
        assert blocks[2].residency == "gpu0"
        assert driver.traffic.bytes_d2h == BIG_PAGE
        assert driver.counters["evicted_blocks"] == 1

    def test_eviction_prefers_unused_frames(self):
        env, driver = make_driver(capacity_mib=4)
        first = make_blocks(driver, 2, start_index=100)
        run(env, driver.prefetch(first, "gpu0"))
        driver.release_blocks(first)  # frames go to the unused queue
        second = make_blocks(driver, 2, start_index=200)
        run(env, driver.prefetch(second, "gpu0"))
        assert driver.counters["evicted_blocks"] == 0
        assert driver.traffic.total_bytes == 0

    def test_discarded_reclaimed_before_used(self):
        """§5.5: eviction order unused -> discarded -> LRU."""
        env, driver = make_driver(capacity_mib=4)
        keep, dead = make_blocks(driver, 2)
        run(env, driver.prefetch([keep, dead], "gpu0"))
        driver.note_access(keep, AccessMode.WRITE)
        driver.note_access(dead, AccessMode.WRITE)
        driver.discard_block_eager(dead)
        (newcomer,) = make_blocks(driver, 1, start_index=500)
        run(env, driver.prefetch([newcomer], "gpu0"))
        # 'keep' is older in LRU terms but survives: the discarded block
        # was reclaimed instead, with no transfer.
        assert keep.residency == "gpu0"
        assert dead.residency is None
        assert driver.traffic.total_bytes == 0
        assert driver.counters["evicted_discarded_blocks"] == 1

    def test_oversubscribing_prefetch_streams_through(self):
        """A prefetch larger than the GPU never OOMs: the range streams
        through one chunk at a time (UVM's defining property)."""
        env, driver = make_driver(capacity_mib=2)  # a single frame
        blocks = make_blocks(driver, 3)
        run(env, driver.prefetch(blocks, "gpu0"))
        # Only the last block is still resident; earlier ones were
        # evicted to make room as the range streamed through.
        assert blocks[-1].residency == "gpu0"
        assert blocks[0].on_cpu
        assert driver.counters["evicted_blocks"] == 2

    def test_victim_frame_is_handed_to_the_waiting_block(self):
        """The frame a writeback vacates goes straight to the block
        waiting for one, unprepared, with the allocator's counts a free
        and an allocate would leave."""
        env = Environment()
        driver = UvmDriver(env, pcie_gen4())
        zero_model = ZeroFillModel()
        driver.register_gpu("gpu0", 4 * MIB, zero_model=zero_model)  # 2 frames
        a, b = resident_written(env, driver, 2)
        old_frame = a.frame
        (newcomer,) = make_blocks(driver, 1, start_index=2000)
        filled = []

        def zero_time(nbytes, chunk=BIG_PAGE):
            filled.append((newcomer.frame, newcomer.frame.prepared))
            return ZeroFillModel.zero_time(zero_model, nbytes, chunk)

        zero_model.zero_time = zero_time
        run(env, driver.prefetch([newcomer], "gpu0"))
        assert a.on_cpu and a.frame is None
        assert newcomer.frame is old_frame
        # The zero fill found the handed-over frame unprepared.
        assert filled == [(old_frame, False)]
        assert old_frame.prepared and old_frame.allocated
        view = driver.inspect().gpus["gpu0"]
        assert (view.free_frames, view.used_frames) == (0, 2)
        assert view.unused_queue_frames == 0
        assert driver.counters["evicted_blocks"] == 1

    def test_device_side_allocation_exhaustion_raises(self):
        """Explicit reservations (cudaMalloc) still fail hard."""
        env, driver = make_driver(capacity_mib=2)
        with pytest.raises(OutOfMemoryError):
            driver.reserve_gpu_memory("gpu0", 4 * MIB)

    def test_reserve_and_release_gpu_memory(self):
        env, driver = make_driver(capacity_mib=8)
        driver.reserve_gpu_memory("gpu0", 4 * MIB)
        assert driver.gpu_free_bytes("gpu0") == 4 * MIB
        driver.release_gpu_memory("gpu0", 4 * MIB)
        assert driver.gpu_free_bytes("gpu0") == 8 * MIB


def resident_written(env, driver, count, start_index=1000):
    """``count`` blocks made GPU-resident one prefetch at a time, then
    written, so the used queue holds them oldest first."""
    blocks = make_blocks(driver, count, start_index)
    for block in blocks:
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
    return blocks


def queued(driver):
    view = driver.inspect().gpus["gpu0"]
    return view.discarded_queue_blocks, view.used_queue_blocks


class TestFrameAcquisitionRareCases:
    """The rare cases of frame acquisition (§5.5): victims locked by a
    concurrent operation, the wait when every victim is locked, the chaos
    takeover of a reserved frame, an armed link fault on the writeback,
    a buffer freed during a writeback, and how reservation and
    retirement end when no frame can be found.
    A test holding ``try_lock_blocks`` stands in for the concurrent
    operation."""

    def test_locked_discarded_victims_are_skipped_in_place(self):
        env, driver = make_driver(capacity_mib=8)  # 4 frames
        d1, d2, d3, keep = resident_written(env, driver, 4)
        driver.discard_blocks_eager([d1, d2, d3])
        assert driver.try_lock_blocks([d1])
        (first,) = make_blocks(driver, 1, start_index=2000)
        run(env, driver.prefetch([first], "gpu0"))
        # The oldest unlocked discarded block goes; the locked one keeps
        # its place at the head of the FIFO.
        assert d2.residency is None
        assert d1.residency == d3.residency == "gpu0"
        assert queued(driver) == (
            (d1.index, d3.index), (keep.index, first.index)
        )
        driver.unlock_blocks([d1])
        (second,) = make_blocks(driver, 1, start_index=2001)
        run(env, driver.prefetch([second], "gpu0"))
        assert d1.residency is None
        assert queued(driver)[0] == (d3.index,)
        assert driver.counters["evicted_discarded_blocks"] == 2
        assert driver.counters["evicted_blocks"] == 0
        assert driver.traffic.total_bytes == 0

    def test_locked_lru_victim_is_skipped_in_place(self):
        env, driver = make_driver(capacity_mib=6)  # 3 frames
        a, b, c = resident_written(env, driver, 3)
        assert driver.try_lock_blocks([a])
        (first,) = make_blocks(driver, 1, start_index=2000)
        run(env, driver.prefetch([first], "gpu0"))
        # a is least recently used but locked: b is written back instead,
        # and a stays at the LRU end.
        assert b.on_cpu
        assert a.residency == "gpu0"
        assert queued(driver)[1] == (a.index, c.index, first.index)
        driver.unlock_blocks([a])
        (second,) = make_blocks(driver, 1, start_index=2001)
        run(env, driver.prefetch([second], "gpu0"))
        assert a.on_cpu
        assert queued(driver)[1] == (c.index, first.index, second.index)
        assert driver.counters["evicted_blocks"] == 2
        assert driver.traffic.bytes_d2h == 2 * BIG_PAGE

    def test_prefetch_waits_while_every_victim_is_locked(self):
        env, driver = make_driver(capacity_mib=4)  # 2 frames
        a, b = resident_written(env, driver, 2)
        assert driver.try_lock_blocks([a, b])
        (newcomer,) = make_blocks(driver, 1, start_index=2000)
        op = env.process(driver.prefetch([newcomer], "gpu0"))
        env.run()
        assert driver.frame_waiters == 1
        assert not op.triggered
        assert newcomer.residency is None
        driver.unlock_blocks([a, b])
        env.run(until=op)
        assert driver.frame_waiters == 0
        assert newcomer.residency == "gpu0"
        assert a.on_cpu
        assert b.residency == "gpu0"

    def test_chaos_takes_over_a_reserved_frame(self):
        """A co-tenant reservation lands after an operation sized its
        chunk and before it takes frames, so only the operation's own
        blocks are in flight: under fault injection the driver
        commandeers a reserved frame rather than failing."""
        env, driver = make_driver(capacity_mib=8)  # 4 frames
        driver.chaos = object()  # the takeover asks only whether one is set
        (resident,) = make_blocks(driver, 1)
        run(env, driver.prefetch([resident], "gpu0"))
        fresh = make_blocks(driver, 2, start_index=2000)
        config = driver.config
        command = config.prefetch_command_overhead + 3 * config.prefetch_per_block

        def co_tenant():
            # Inside the operation's recency update of its resident block.
            yield env.timeout(command + config.recency_update_per_block / 2)
            driver.reserve_gpu_memory("gpu0", 2 * BIG_PAGE)

        env.process(co_tenant())
        run(env, driver.prefetch([resident, *fresh], "gpu0"))
        assert driver.counters["reclaimed_reserved_frames"] == 1
        assert all(b.residency == "gpu0" for b in (resident, *fresh))
        view = driver.inspect().gpus["gpu0"]
        assert (view.capacity_frames, view.free_frames) == (3, 0)

    def test_without_chaos_the_same_squeeze_is_out_of_memory(self):
        env, driver = make_driver(capacity_mib=8)
        (resident,) = make_blocks(driver, 1)
        run(env, driver.prefetch([resident], "gpu0"))
        fresh = make_blocks(driver, 2, start_index=2000)
        config = driver.config
        command = config.prefetch_command_overhead + 3 * config.prefetch_per_block

        def co_tenant():
            yield env.timeout(command + config.recency_update_per_block / 2)
            driver.reserve_gpu_memory("gpu0", 2 * BIG_PAGE)

        env.process(co_tenant())
        with pytest.raises(OutOfMemoryError):
            run(env, driver.prefetch([resident, *fresh], "gpu0"))
        assert driver.counters["reclaimed_reserved_frames"] == 0

    def test_armed_link_fault_is_retried_by_the_writeback(self):
        env, driver = make_driver(capacity_mib=4)  # 2 frames
        a, b = resident_written(env, driver, 2)
        driver.link.inject_transfer_fault(1)
        (newcomer,) = make_blocks(driver, 1, start_index=2000)
        # The newcomer is zero-filled: a's writeback is the only transfer.
        run(env, driver.prefetch([newcomer], "gpu0"))
        assert a.on_cpu
        assert driver.link.armed_faults == 0
        assert driver.counters["transfer_faults"] == 1
        assert driver.counters["transfer_retries"] == 1
        # The failed attempt moved no bytes.
        assert driver.traffic.bytes_d2h == BIG_PAGE
        assert driver.traffic.bytes_h2d == 0
        check_transfer_conservation(driver)

    def test_unused_frame_from_a_release_mid_writeback_is_taken_first(self):
        """A buffer freed while a writeback is on the wire puts its frame
        on the unused queue: the waiting block takes that frame, and the
        victim's frame goes to the free pool."""
        env, driver = make_driver(capacity_mib=6)  # 3 frames
        a, b, doomed = resident_written(env, driver, 3)
        freed_frame = doomed.frame
        (newcomer,) = make_blocks(driver, 1, start_index=2000)
        config = driver.config
        command = config.prefetch_command_overhead + config.prefetch_per_block
        wire = driver.link.transfer_time(BIG_PAGE, chunk=BIG_PAGE)
        during = []

        def release_mid_wire():
            yield env.timeout(command + wire / 2)
            during.append(
                (
                    a.residency,
                    driver.gpu_page_table("gpu0").is_mapped(a.index),
                    a.index in driver.inspect().inflight,
                )
            )
            driver.release_blocks([doomed])

        env.process(release_mid_wire())
        run(env, driver.prefetch([newcomer], "gpu0"))
        # The release landed after a's PTE clear and before its data
        # reached the host.
        assert during == [("gpu0", False, True)]
        assert a.on_cpu
        assert newcomer.frame is freed_frame
        view = driver.inspect().gpus["gpu0"]
        assert (view.unused_queue_frames, view.free_frames) == (0, 1)

    def test_victim_freed_mid_writeback_stays_unmapped(self):
        """A buffer freed while its block's writeback is on the wire: the
        block ends with no residency and no CPU mapping, its frame goes
        to the waiting block, and the bytes already moved count as D2H
        traffic resolved redundant."""
        env, driver = make_driver(capacity_mib=4)  # 2 frames
        a, b = resident_written(env, driver, 2)
        freed_frame = a.frame
        (newcomer,) = make_blocks(driver, 1, start_index=2000)
        config = driver.config
        command = config.prefetch_command_overhead + config.prefetch_per_block
        wire = driver.link.transfer_time(BIG_PAGE, chunk=BIG_PAGE)
        during = []

        def release_mid_wire():
            yield env.timeout(command + wire / 2)
            during.append(a.index in driver.inspect().inflight)
            driver.release_blocks([a])

        env.process(release_mid_wire())
        run(env, driver.prefetch([newcomer], "gpu0"))
        assert during == [True]
        assert a.residency is None and a.frame is None
        assert not driver.cpu_page_table.is_mapped(a.index)
        assert newcomer.frame is freed_frame
        assert driver.traffic.bytes_d2h == BIG_PAGE
        assert collect_invariant_problems(driver.inspect()) == []
        check_transfer_conservation(driver)
        driver.finalize()
        assert (driver.rmt.useful_bytes, driver.rmt.redundant_bytes) == (
            0, BIG_PAGE
        )

    def test_block_freed_mid_migration_to_the_gpu_stays_released(self):
        """A buffer freed while its block's H2D wire is on the way to
        gpu0: the block ends with no residency, frame or mapping, its
        destination frame sits in gpu0's unused queue, and the bytes
        already moved count as H2D traffic resolved redundant."""
        env, driver = make_driver(capacity_mib=8)  # 4 frames
        (a,) = make_blocks(driver, 1)
        populate_cpu(env, driver, [a])
        config = driver.config
        command = config.prefetch_command_overhead + config.prefetch_per_block
        cpu, gpu = driver.cpu_page_table.costs, driver.gpu_page_table("gpu0").costs
        remap = (
            cpu.unmap_block + cpu.tlb_invalidate + gpu.map_block + gpu.batch_overhead
        )
        wire = driver.link.transfer_time(BIG_PAGE, chunk=BIG_PAGE)
        during = []

        def release_mid_wire():
            yield env.timeout(command + remap + wire / 2)
            during.append((a.residency, a.index in driver.inspect().inflight))
            driver.release_blocks([a])

        env.process(release_mid_wire())
        run(env, driver.prefetch([a], "gpu0"))
        assert during == [("cpu", True)]
        assert a.residency is None and a.frame is None
        assert not driver.cpu_page_table.is_mapped(a.index)
        view = driver.inspect()
        gpu0 = view.gpus["gpu0"]
        assert a.index not in gpu0.mapped_blocks
        assert (gpu0.unused_queue_frames, gpu0.used_frames) == (1, 1)
        assert gpu0.used_queue_blocks == ()
        assert driver.traffic.bytes_h2d == BIG_PAGE
        assert collect_invariant_problems(view) == []
        check_transfer_conservation(driver)
        driver.finalize()
        assert (driver.rmt.useful_bytes, driver.rmt.redundant_bytes) == (
            0, BIG_PAGE
        )

    @pytest.mark.parametrize(
        "clear_part, wire_part, owner, gpu0_frames",
        [
            # Halfway through the PTE clear on gpu0, before gpu1's frame
            # is taken: the release files gpu0's frame on gpu0's unused
            # queue.
            (0.5, 0.0, "gpu0", (1, 3)),
            # Halfway through the D2H wire: the block holds gpu1's frame,
            # and the move frees gpu0's.
            (1.0, 0.5, "gpu1", (0, 4)),
        ],
        ids=["mid-clear", "mid-wire"],
    )
    def test_block_freed_mid_peer_migration_stays_released(
        self, clear_part, wire_part, owner, gpu0_frames
    ):
        """A buffer freed while its block moves from gpu0 to gpu1 through
        the host: gpu1's frame goes to gpu1's unused queue, gpu0's frame
        ends free or unused on gpu0, and the block ends with no
        residency, frame or mapping."""
        env, driver = make_driver(capacity_mib=8)  # 4 frames
        driver.register_gpu("gpu1", 8 * MIB)
        (a,) = make_blocks(driver, 1)
        populate_cpu(env, driver, [a])
        run(env, driver.prefetch([a], "gpu0"))
        driver.note_access(a, AccessMode.WRITE)
        config = driver.config
        command = config.prefetch_command_overhead + config.prefetch_per_block
        costs = driver.gpu_page_table("gpu0").costs
        clear = costs.unmap_block + costs.tlb_invalidate
        wire = driver.link.transfer_time(BIG_PAGE, chunk=BIG_PAGE)
        during = []

        def release():
            yield env.timeout(command + clear * clear_part + wire * wire_part)
            during.append((a.residency, a.frame.owner))
            driver.release_blocks([a])

        start = env.now
        env.process(release())
        run(env, driver.prefetch([a], "gpu1"))
        assert start + command + clear < env.now
        assert during == [("gpu0", owner)]
        assert a.residency is None and a.frame is None
        view = driver.inspect()
        assert a.index not in view.cpu_mapped
        for name in ("gpu0", "gpu1"):
            assert a.index not in view.gpus[name].mapped_blocks
            assert view.gpus[name].used_queue_blocks == ()
        assert (
            view.gpus["gpu0"].unused_queue_frames, view.gpus["gpu0"].free_frames
        ) == gpu0_frames
        assert (
            view.gpus["gpu1"].unused_queue_frames, view.gpus["gpu1"].used_frames
        ) == (1, 1)
        assert (driver.traffic.bytes_h2d, driver.traffic.bytes_d2h) == (
            2 * BIG_PAGE, BIG_PAGE
        )
        assert collect_invariant_problems(view) == []
        check_transfer_conservation(driver)
        driver.finalize()
        assert driver.rmt.redundant_bytes == 3 * BIG_PAGE

    def test_block_freed_while_it_waits_for_a_frame_stays_released(self):
        """A buffer freed while its block's migration to gpu0 waits for a
        frame (every victim is another prefetch's, in flight): the frame
        it gets afterwards goes to gpu0's unused queue and the gpu0
        mapping made afterwards is cleared."""
        env, driver = make_driver(capacity_mib=4)  # 2 frames
        x, y, a = make_blocks(driver, 3)
        populate_cpu(env, driver, [x, y, a])
        config = driver.config
        command = config.prefetch_command_overhead + config.prefetch_per_block
        during = []

        def later_prefetch():
            yield env.timeout(command)
            yield from driver.prefetch([a], "gpu0")

        def release_while_waiting():
            yield env.timeout(2 * command + us(0.5))
            during.append((a.residency, a.frame, driver.frame_waiters))
            driver.release_blocks([a])

        env.process(driver.prefetch([x], "gpu0"))
        env.process(driver.prefetch([y], "gpu0"))
        env.process(release_while_waiting())
        run(env, later_prefetch())
        assert during == [("cpu", None, 1)]
        assert a.residency is None and a.frame is None
        view = driver.inspect()
        assert a.index not in view.cpu_mapped
        assert a.index not in view.gpus["gpu0"].mapped_blocks
        assert (x.residency, y.residency) == ("cpu", "gpu0")
        assert (
            view.gpus["gpu0"].unused_queue_frames, view.gpus["gpu0"].used_frames
        ) == (1, 2)
        assert (driver.traffic.bytes_h2d, driver.traffic.bytes_d2h) == (
            3 * BIG_PAGE, BIG_PAGE
        )
        assert collect_invariant_problems(view) == []
        check_transfer_conservation(driver)

    def test_discarded_victim_frees_its_frame_before_a_pte_clear_wait(self):
        """A lazily discarded victim's PTE clear is cut short by another
        prefetch: the frame waits in the free pool, and the other
        prefetch takes it without evicting."""
        env, driver = make_driver(capacity_mib=4)  # 2 frames
        dead, live = resident_written(env, driver, 2)
        driver.discard_blocks_lazy([dead])
        first, second = make_blocks(driver, 2, start_index=2000)
        arrived = []

        def other():
            # Its frame request lands inside the first prefetch's PTE clear.
            yield env.timeout(us(0.5))
            yield from driver.prefetch([second], "gpu0")
            arrived.append(live.residency)

        env.process(other())
        env.process(driver.prefetch([first], "gpu0"))
        env.run()
        # The other prefetch evicted nothing: live was still resident.
        assert arrived == ["gpu0"]
        assert live.on_cpu
        assert first.residency == second.residency == "gpu0"
        assert driver.counters["evicted_discarded_blocks"] == 1
        assert driver.counters["evicted_blocks"] == 1

    def test_writeback_reads_the_wire_time_once_it_holds_the_engine(self):
        """A writeback queued behind a held D2H engine takes the wire time
        of the link as it is when the engine comes free."""
        env, driver = make_driver(capacity_mib=4, keep_transfer_records=True)
        a, b = resident_written(env, driver, 2)
        d2h = driver._gpu("gpu0").engines.d2h
        (newcomer,) = make_blocks(driver, 1, start_index=2000)
        hold = us(50.0)
        released = []

        def holder():
            request = d2h.request()
            yield request
            yield env.timeout(hold)
            driver.link.degrade(0.25)
            released.append(env.now)
            d2h.release(request)

        env.process(holder())
        run(env, driver.prefetch([newcomer], "gpu0"))
        degraded = driver.link.transfer_time(BIG_PAGE, chunk=BIG_PAGE)
        (writeback,) = [
            rec for rec in driver.traffic.records
            if rec.reason is TransferReason.EVICTION
        ]
        assert writeback.time == pytest.approx(released[0] + degraded)
        assert a.on_cpu

    def test_reservation_keeps_what_it_got_when_nothing_is_evictable(self):
        env, driver = make_driver(capacity_mib=8)  # 4 frames
        blocks = make_blocks(driver, 2)
        run(env, driver.prefetch(blocks, "gpu0"))
        driver.release_blocks(blocks)  # two unused frames, two free
        got = run(env, driver.reserve_gpu_frames("gpu0", 5))
        assert got == 4
        # Free frames go first; each unused one is moved to the free pool.
        assert driver.counters["evicted_unused_frames"] == 2
        assert driver.counters["evicted_blocks"] == 0
        view = driver.inspect().gpus["gpu0"]
        assert (view.capacity_frames, view.free_frames) == (0, 0)

    def test_retirement_refuses_the_last_frame_before_evicting(self):
        env, driver = make_driver(capacity_mib=2)  # a single frame
        (block,) = resident_written(env, driver, 1)
        with pytest.raises(OutOfMemoryError):
            run(env, driver.retire_frames("gpu0", 1))
        assert block.residency == "gpu0"
        assert driver.traffic.bytes_d2h == 0
        assert driver.counters["ecc_retired_frames"] == 0


class TestEagerDiscard:
    def test_unmaps_and_queues(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
        cost = driver.discard_block_eager(block)
        assert cost > 0
        assert block.discarded and block.discard_kind is DiscardKind.EAGER
        assert not driver.gpu_page_table("gpu0").is_mapped(block.index)
        assert block in driver.gpu_queues("gpu0").discarded
        assert driver.gpu_needs_fault("gpu0", block)

    def test_revival_on_refault(self):
        """§5.7: access-after-discard revives the frame, no zeroing."""
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
        driver.discard_block_eager(block)
        zeroed = driver.counters["zeroed_blocks"]
        run(env, driver.handle_gpu_faults("gpu0", [block]))
        assert not block.discarded
        assert block.residency == "gpu0"
        assert block in driver.gpu_queues("gpu0").used
        assert driver.counters["discard_revivals"] == 1
        assert driver.counters["zeroed_blocks"] == zeroed  # frame prepared

    def test_revival_zeroes_unprepared_frame(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
        driver.discard_block_eager(block)
        block.frame.prepared = False  # partial-population case (§5.7)
        zeroed = driver.counters["zeroed_blocks"]
        run(env, driver.handle_gpu_faults("gpu0", [block]))
        assert driver.counters["zeroed_blocks"] == zeroed + 1
        assert block.frame.prepared

    def test_discard_on_cpu_resident_skips_future_transfer(self):
        """§5.3 second scenario: no H2D transfer when re-populated."""
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        populate_cpu(env, driver, [block])
        driver.discard_block_eager(block)
        run(env, driver.prefetch([block], "gpu0"))
        assert driver.traffic.total_bytes == 0  # zero-filled, not migrated
        assert block.residency == "gpu0"
        assert not block.discarded

    def test_discard_never_touched_block(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        cost = driver.discard_block_eager(block)
        assert block.discarded
        assert cost >= 0

    def test_immediate_reclaim_ablation(self):
        env, driver = make_driver(discarded_queue_enabled=False)
        (block,) = make_blocks(driver, 1)
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
        driver.discard_block_eager(block)
        assert block.residency is None
        assert block.frame is None
        assert len(driver.gpu_queues("gpu0").discarded) == 0


class TestLazyDiscard:
    def _discarded_block(self, env, driver):
        (block,) = make_blocks(driver, 1)
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
        driver.discard_block_lazy(block)
        return block

    def test_keeps_mapping(self):
        """§5.2: no eager unmapping — the key cost difference."""
        env, driver = make_driver()
        block = self._discarded_block(env, driver)
        assert block.discarded and block.discard_kind is DiscardKind.LAZY
        assert not block.sw_dirty
        assert driver.gpu_page_table("gpu0").is_mapped(block.index)
        assert not driver.gpu_needs_fault("gpu0", block)
        assert block in driver.gpu_queues("gpu0").discarded

    def test_cheaper_than_eager(self):
        env, driver = make_driver()
        a, b = make_blocks(driver, 2)
        run(env, driver.prefetch([a, b], "gpu0"))
        driver.note_access(a, AccessMode.WRITE)
        driver.note_access(b, AccessMode.WRITE)
        assert driver.discard_block_lazy(a) < driver.discard_block_eager(b)

    def test_prefetch_sets_dirty_bit_and_revives(self):
        """§5.2: the mandatory prefetch notification."""
        env, driver = make_driver()
        block = self._discarded_block(env, driver)
        run(env, driver.prefetch([block], "gpu0"))
        assert not block.discarded
        assert block.sw_dirty
        assert block in driver.gpu_queues("gpu0").used
        assert driver.counters["discard_revivals"] == 1
        assert driver.traffic.total_bytes == 0

    def test_reclaim_pays_deferred_unmap(self):
        """§5.6: reclamation of a lazy block sends the unmap request."""
        env, driver = make_driver(capacity_mib=4)
        block = self._discarded_block(env, driver)
        unmaps_before = driver.gpu_page_table("gpu0").unmap_count
        fillers = make_blocks(driver, 2, start_index=600)
        run(env, driver.prefetch(fillers, "gpu0"))
        assert block.residency is None
        assert driver.gpu_page_table("gpu0").unmap_count == unmaps_before + 1
        assert driver.counters["evicted_discarded_blocks"] == 1

    def test_misuse_detected_on_reclaim(self):
        """§5.2: re-purposing without the prefetch loses the new data."""
        env, driver = make_driver(capacity_mib=4)
        block = self._discarded_block(env, driver)
        # Program writes again WITHOUT the prefetch: the driver can't see.
        driver.note_access(block, AccessMode.WRITE)
        fillers = make_blocks(driver, 2, start_index=700)
        run(env, driver.prefetch(fillers, "gpu0"))
        assert driver.counters["lazy_misuses"] == 1
        assert driver.oracle.corruption_count == 1

    def test_strict_mode_raises_on_misuse(self):
        env, driver = make_driver(capacity_mib=4, strict_lazy=True)
        block = self._discarded_block(env, driver)
        driver.note_access(block, AccessMode.WRITE)
        fillers = make_blocks(driver, 2, start_index=800)
        with pytest.raises(DiscardSemanticsError):
            run(env, driver.prefetch(fillers, "gpu0"))

    def test_correct_use_never_misuses(self):
        env, driver = make_driver(capacity_mib=4)
        block = self._discarded_block(env, driver)
        run(env, driver.prefetch([block], "gpu0"))  # mandatory notification
        driver.note_access(block, AccessMode.WRITE)
        fillers = make_blocks(driver, 2, start_index=900)
        run(env, driver.prefetch(fillers, "gpu0"))
        assert driver.counters["lazy_misuses"] == 0
        # The block held live data, so eviction transferred it out.
        assert block.on_cpu
        assert driver.traffic.bytes_d2h == BIG_PAGE


class TestReleaseBlocks:
    def test_release_resolves_rmt_and_recycles_frames(self):
        env, driver = make_driver()
        blocks = make_blocks(driver, 2)
        populate_cpu(env, driver, blocks)
        run(env, driver.prefetch(blocks, "gpu0"))
        driver.release_blocks(blocks)
        driver.finalize()
        # The migrated data was never read: transfers were redundant.
        assert driver.rmt.redundant_bytes == 2 * BIG_PAGE
        assert len(driver.gpu_queues("gpu0").unused) == 2
        for block in blocks:
            assert block.residency is None


class TestNoteAccess:
    def test_read_marks_useful(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        populate_cpu(env, driver, [block])
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.READ)
        assert driver.rmt.useful_bytes == BIG_PAGE

    def test_overwrite_marks_redundant(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        populate_cpu(env, driver, [block])
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.WRITE)
        assert driver.rmt.redundant_bytes == BIG_PAGE

    def test_readwrite_marks_useful(self):
        env, driver = make_driver()
        (block,) = make_blocks(driver, 1)
        populate_cpu(env, driver, [block])
        run(env, driver.prefetch([block], "gpu0"))
        driver.note_access(block, AccessMode.READWRITE)
        assert driver.rmt.useful_bytes == BIG_PAGE
        assert block.version == 2  # host write + RMW


class TestBlockLocks:
    def test_contended_lock_waits_in_block_order(self):
        """A waiter joins the in-flight events in block order, never in
        event-address order, so every run of a program takes one schedule."""
        env, driver = make_driver()
        low, mid, high = make_blocks(driver, 3)
        # Claim the ends in reverse block order; both claims are free.
        assert list(driver.lock_blocks([high])) == []
        assert list(driver.lock_blocks([low])) == []
        waiter = driver.lock_blocks([low, mid, high])
        first = next(waiter)
        assert not first.triggered
        driver.unlock_blocks([low])
        assert first.triggered  # the first wait was on the low block
        second = waiter.send(None)
        assert not second.triggered
        driver.unlock_blocks([high])
        assert second.triggered
        assert list(waiter) == []
        assert driver.inspect().inflight == {low.index, mid.index, high.index}
