"""The simulated UVM driver.

Reproduces the state machines of NVIDIA's open-source UVM kernel driver
that the paper builds on and modifies: fault-driven migration with
exclusive residency (§2.2), prefetch (§2.1), the per-GPU page queues and
the eviction process with the paper's modified ordering (§5.5), delayed
reclamation of discarded pages (§5.6), and access-after-discard revival
(§5.7).  The two discard implementations in :mod:`repro.core` drive the
``discard_blocks_eager`` / ``discard_blocks_lazy`` transitions defined
here, one call per discard batch.

All externally visible operations that consume simulated time are
generator *processes* for the discrete-event engine; pure state queries
are plain methods.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence

from repro.access import AccessMode
from repro.core.semantics import DataOracle
from repro.driver.config import UvmDriverConfig
from repro.driver.inspect import BlockView, DriverInspection, GpuView
from repro.driver.migration import CopyEngines, MigrationEngine
from repro.driver.queues import GpuPageQueues
from repro.driver.va_block import CPU, DiscardKind, VaBlock
from repro.engine.core import Environment
from repro.errors import (
    ConfigurationError,
    DiscardSemanticsError,
    OutOfMemoryError,
    SimulationError,
)
from repro.instrument.counters import Counters
from repro.instrument.rmt import RmtClassifier
from repro.instrument.trace import NULL_TRACER
from repro.instrument.traffic import TrafficRecorder, TransferDirection, TransferReason
from repro.interconnect.link import Link
from repro.memsim.frames import Frame, FrameAllocator
from repro.units import BIG_PAGE, SMALL_PAGE
from repro.memsim.zeroing import ZeroFillModel
from repro.vm.page_table import BitmapPageTable, MappingCosts


#: Distinguishes "no entry" from a lazily-materialized (``None``) lock.
_MISSING = object()


class _GpuState:
    """Per-GPU driver state: allocator, queues, page table, copy engines."""

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity_bytes: int,
        zero_model: ZeroFillModel,
        mapping_costs: MappingCosts,
        eviction_policy: str = "lru",
    ) -> None:
        self.name = name
        self.allocator = FrameAllocator(name, capacity_bytes)
        self.queues = GpuPageQueues(name, eviction_policy)
        self.page_table = BitmapPageTable(name, mapping_costs)
        self.engines = CopyEngines(env)
        self.zero_model = zero_model

    @property
    def chunk_limit(self) -> int:
        """Most blocks one residency operation brings in at a time.

        One frame short of the device, so a range larger than the GPU
        streams through it rather than deadlocking against itself.
        """
        return max(1, self.allocator.capacity_frames - 1)


class UvmDriver:
    """Simulated UVM driver for one host plus one or more GPUs."""

    #: Operations parked in :meth:`_acquire_frames` waiting for another
    #: operation's block lock.  A class-level default, so snapshots
    #: pickled before the counter existed still load.
    frame_waiters = 0

    def __init__(
        self,
        env: Environment,
        link: Link,
        config: Optional[UvmDriverConfig] = None,
        oracle: Optional[DataOracle] = None,
        p2p_link: Optional[Link] = None,
    ) -> None:
        self.env = env
        self.link = link
        #: Direct GPU-to-GPU interconnect (NVLink/NVSwitch, §2.3).  When
        #: absent, peer migrations bounce through host memory.
        self.p2p_link = p2p_link
        config = config or UvmDriverConfig()
        self.traffic = TrafficRecorder()
        self.rmt = RmtClassifier()
        self.counters = Counters()
        self.oracle = oracle or DataOracle()
        self.migration = MigrationEngine(
            env, link, self.traffic, self.rmt, counters=self.counters
        )
        self._gpus: Dict[str, _GpuState] = {}
        self._apply_config(config)
        #: Optional fault injector (:class:`repro.chaos.ChaosInjector`).
        #: When set, :meth:`handle_gpu_faults` routes each fault batch
        #: through it so injected storms and reorderings perturb the
        #: servicing schedule.
        self.chaos = None
        #: Simulated-time tracer (:class:`repro.instrument.trace.Tracer`).
        #: Defaults to the shared no-op singleton; every span site binds
        #: it locally and tests ``tracer.enabled`` before any bookkeeping,
        #: so the disabled configuration costs one attribute load.
        self.tracer = NULL_TRACER
        # CPU PTE operations are local and cheap compared to GPU ones.
        self.cpu_page_table = BitmapPageTable(
            CPU,
            MappingCosts(
                map_block=0.2e-6,
                unmap_block=0.2e-6,
                tlb_invalidate=0.3e-6,
                batch_overhead=0.1e-6,
            ),
        )
        self._blocks: Dict[int, VaBlock] = {}
        # Per-block mutual exclusion for concurrent residency operations
        # (the simulator's equivalent of the real driver's va_block locks):
        # maps a block index to an event that fires when the in-flight
        # operation on that block completes.  The event is materialized
        # lazily — a lock with no waiter is just a ``None`` entry — so the
        # common uncontended case allocates nothing.
        self._inflight: Dict[int, object] = {}
        # Per-GPU sequential-stream detection state for auto-prefetch.
        self._stream_state: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # snapshot/fork support
    # ------------------------------------------------------------------

    def snapshot_precheck(self) -> None:
        """Raise :class:`~repro.errors.SnapshotError` unless the driver's
        state is safe to deep-snapshot.

        Beyond engine quiescence this means no residency operation may be
        mid-flight (``_inflight`` locks held) and no copy engine may hold
        or queue a request — conditions that are implied by an empty
        event heap but checked explicitly so a violated invariant names
        the culprit.
        """
        from repro.errors import SnapshotError

        if not self.env.quiescent:
            raise SnapshotError(
                "driver snapshot with events still on the heap; drain the "
                "simulation first"
            )
        if self._inflight:
            raise SnapshotError(
                "driver snapshot with in-flight residency operations on "
                f"blocks {sorted(self._inflight)}"
            )
        for g in self._gpus.values():
            for engine in (g.engines.h2d, g.engines.d2h):
                if engine.in_use or engine.queue_length:
                    raise SnapshotError(
                        f"driver snapshot with busy copy engine on {g.name}"
                    )

    def reconfigure(self, config: UvmDriverConfig) -> None:
        """Swap in a new config on a forked driver.

        A snapshot carries the *prefix* point's configuration; each fork
        re-applies its own point's knobs before the measured body runs.
        Accumulated instrument state is deliberately untouched — it is
        part of the simulation history being continued.  Knobs that
        shape the prefix itself (the sweep's
        ``SETUP_AFFECTING_DRIVER_KEYS``) are grouped apart by its prefix
        key instead.
        """
        self._apply_config(config)

    def _apply_config(self, config: UvmDriverConfig) -> None:
        """Install ``config`` and every value the driver derives from it.

        The one place config-derived state is set, shared by
        construction and :meth:`reconfigure`, so a forked driver can
        never keep a value latched from the prefix's config.
        """
        config.validate()
        self.config = config
        for g in self._gpus.values():
            g.queues.used.set_policy(config.eviction_policy)
        self.migration.max_retries = config.transfer_max_retries
        self.migration.retry_backoff = config.transfer_retry_backoff
        self.traffic._keep_records = config.keep_transfer_records

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_gpu(
        self,
        name: str,
        capacity_bytes: int,
        zero_model: Optional[ZeroFillModel] = None,
        mapping_costs: Optional[MappingCosts] = None,
    ) -> None:
        """Attach a GPU with ``capacity_bytes`` of device memory."""
        if name in self._gpus or name == CPU:
            raise ConfigurationError(f"duplicate or reserved processor name {name!r}")
        self._gpus[name] = _GpuState(
            self.env,
            name,
            capacity_bytes,
            zero_model or ZeroFillModel(),
            mapping_costs or MappingCosts(),
            eviction_policy=self.config.eviction_policy,
        )

    def gpu_names(self) -> List[str]:
        return list(self._gpus)

    def _gpu(self, name: str) -> _GpuState:
        try:
            return self._gpus[name]
        except KeyError:
            raise ConfigurationError(f"unknown GPU {name!r}") from None

    def gpu_free_bytes(self, name: str) -> int:
        """Bytes obtainable without eviction (free frames + unused queue)."""
        g = self._gpu(name)
        from repro.units import BIG_PAGE

        return g.allocator.free_bytes + len(g.queues.unused) * BIG_PAGE

    def gpu_queues(self, name: str) -> GpuPageQueues:
        return self._gpu(name).queues

    def inspect(self) -> DriverInspection:
        """Build an immutable snapshot of all driver-visible state.

        The public inspection API: validators and tests consume this
        instead of reaching into ``_gpus``/``_blocks``/``_inflight``.
        Safe to call between any two engine events (not only at
        quiescence); the returned views never alias live driver objects.
        """
        gpus: Dict[str, GpuView] = {}
        for name, g in self._gpus.items():
            gpus[name] = GpuView(
                name=name,
                capacity_frames=g.allocator.capacity_frames,
                free_frames=g.allocator.free_frames,
                used_frames=g.allocator.used_frames,
                retired_frames=g.allocator.retired_frames,
                unused_queue_frames=len(g.queues.unused),
                used_queue_blocks=tuple(b.index for b in g.queues.used),
                discarded_queue_blocks=tuple(
                    b.index for b in g.queues.discarded
                ),
                mapped_blocks=g.page_table.mapped_indices(),
            )
        blocks: Dict[int, BlockView] = {}
        for index, block in self._blocks.items():
            frame = block.frame
            blocks[index] = BlockView(
                index=index,
                used_bytes=block.used_bytes,
                residency=block.residency,
                has_frame=frame is not None,
                frame_owner=None if frame is None else frame.owner,
                frame_allocated=frame is not None and frame.allocated,
                populated=block.populated,
                discarded=block.discarded,
                discard_kind=(
                    None
                    if block.discard_kind is None
                    else block.discard_kind.value
                ),
                sw_dirty=block.sw_dirty,
                written_since_discard=block.written_since_discard,
            )
        return DriverInspection(
            gpus=gpus,
            blocks=blocks,
            inflight=frozenset(self._inflight),
            cpu_mapped=self.cpu_page_table.mapped_indices(),
        )

    def sample_occupancy(self) -> List[tuple]:
        """Lightweight per-GPU occupancy tuples for the metrics sampler.

        Returns ``(name, free_frames, used_frames, unused_queue,
        discarded_queue, used_queue)`` per GPU.  Unlike :meth:`inspect`
        this allocates no per-block views, so it is cheap enough to call
        every few engine events.
        """
        return [
            (
                name,
                g.allocator.free_frames,
                g.allocator.used_frames,
                len(g.queues.unused),
                len(g.queues.discarded),
                len(g.queues.used),
            )
            for name, g in self._gpus.items()
        ]

    def sample_engines(self) -> List[tuple]:
        """Per-copy-engine ``(label, in_use, queue_length)`` tuples."""
        out = []
        for name, g in self._gpus.items():
            for engine in (g.engines.h2d, g.engines.d2h):
                out.append(
                    (f"{name}/{engine.name}", engine.in_use, engine.queue_length)
                )
        return out

    def gpu_page_table(self, name: str) -> BitmapPageTable:
        return self._gpu(name).page_table

    def reserve_gpu_memory(self, name: str, nbytes: int) -> None:
        """Pin ``nbytes`` of GPU memory outside UVM's reach.

        Models both the oversubscription occupant of §7.1 and `cudaMalloc`
        device allocations coexisting with managed memory.
        """
        from repro.units import BIG_PAGE, align_up

        frames = align_up(nbytes, BIG_PAGE) // BIG_PAGE
        self._gpu(name).allocator.reserve(frames)

    def release_gpu_memory(self, name: str, nbytes: int) -> None:
        """Undo a :meth:`reserve_gpu_memory` (the `cudaFree` path).

        Clamped to what is still reserved: under absolute memory
        pressure the driver may have commandeered part of a reservation
        already (see :meth:`_acquire_frames`), in which case the holder
        frees only what it still owns.
        """
        from repro.units import BIG_PAGE, align_up

        allocator = self._gpu(name).allocator
        frames = align_up(nbytes, BIG_PAGE) // BIG_PAGE
        allocator.unreserve(min(frames, allocator.reserved_frames))

    def reserve_gpu_frames(self, gpu: str, nframes: int) -> Generator:
        """Evict-to-reserve: pin up to ``nframes`` frames, vacating first.

        Unlike :meth:`reserve_gpu_memory` (which needs the frames to be
        free already), this models a co-tenant allocation landing on a
        busy GPU: resident blocks are evicted through the ordinary
        machinery to make room.  Best-effort — returns the number of
        frames actually reserved, which may fall short when nothing is
        evictable.  A generator process; charges the eviction time.
        """
        g = self._gpu(gpu)
        if nframes < 0:
            raise ValueError(f"negative reservation: {nframes}")
        reserved = 0

        def claim(evicted: bool) -> bool:
            nonlocal reserved
            if not self._free_pool_frame(g):
                return False
            g.allocator.reserve(1)
            reserved += 1
            return True

        try:
            yield from self._acquire_frames(g, range(nframes), claim=claim)
        except OutOfMemoryError:
            pass  # nothing left to evict: keep what we got
        return reserved

    def retire_frames(self, gpu: str, nframes: int = 1) -> Generator:
        """ECC-style page retirement: permanently remove ``nframes`` (§ chaos).

        Models the driver's response to uncorrectable ECC errors: the
        afflicted physical frames are taken out of service for the rest
        of the run.  Each retirement first *vacates* a frame through the
        ordinary eviction machinery (unused → discarded → used-LRU), so
        a resident block backed by a failing frame is remapped — its
        data migrated or reclaimed — before the frame disappears.  A
        generator process; charges whatever time the forced evictions
        cost.
        """
        g = self._gpu(gpu)
        if nframes < 0:
            raise ValueError(f"negative retirement: {nframes}")
        allocator = g.allocator
        counters = self.counters
        # Blocks evicted by any operation while the routine evicted a
        # victim for this retirement count as remapped.
        evicted_before = 0

        def claim(evicted: bool) -> bool:
            nonlocal evicted_before
            evicted_now = (
                counters[Counters.EVICTED_BLOCKS]
                + counters[Counters.EVICTED_DISCARDED_BLOCKS]
            )
            if evicted and evicted_now > evicted_before:
                counters.bump(
                    Counters.ECC_REMAPPED_BLOCKS, evicted_now - evicted_before
                )
            if allocator.capacity_frames <= 1:
                raise OutOfMemoryError(
                    f"{g.name}: cannot retire the last remaining frame"
                )
            if not self._free_pool_frame(g):
                evicted_before = evicted_now
                return False
            allocator.retire(1)
            counters.bump(Counters.ECC_RETIRED_FRAMES)
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant(
                    f"{g.name}/evict",
                    "frame_retired",
                    self.env.now,
                    category="chaos",
                )
            return True

        yield from self._acquire_frames(g, range(nframes), claim=claim)

    def register_blocks(self, blocks: Iterable[VaBlock]) -> None:
        """Make an allocation's blocks known to the driver."""
        for block in blocks:
            if block.index in self._blocks:
                raise SimulationError(f"block {block.index} registered twice")
            self._blocks[block.index] = block

    def block(self, index: int) -> VaBlock:
        try:
            return self._blocks[index]
        except KeyError:
            raise SimulationError(f"unregistered block index {index}") from None

    def release_blocks(self, blocks: Iterable[VaBlock]) -> None:
        """Free an allocation: drop residency with no transfers.

        Freeing implies the data is dead, so any pending transfer records
        resolve as redundant and GPU frames go to the unused queue where
        they can be handed out again with no migration (§5.5).  No block
        lock is taken: a block freed while its writeback is on the wire
        is finished by :meth:`_acquire_frames`, which leaves it unmapped.
        """
        blocks = list(blocks)
        self.rmt.on_discards(blocks)
        for block in blocks:
            if block.on_gpu:
                g = self._gpu(block.residency)  # type: ignore[arg-type]
                g.queues.forget(block)
                if g.page_table.is_mapped(block.index):
                    g.page_table.unmap_block(block.index)
                if block.frame is not None:
                    g.queues.unused.append(block.frame)
            if self.cpu_page_table.is_mapped(block.index):
                self.cpu_page_table.unmap_block(block.index)
            block.frame = None
            block.residency = None
            block.populated = False
            self._blocks.pop(block.index, None)

    # ------------------------------------------------------------------
    # frame acquisition and eviction (§5.5)
    # ------------------------------------------------------------------

    def _acquire_frames(
        self,
        g: _GpuState,
        blocks: Iterable,
        locked: Sequence[VaBlock] = (),
        claim: Optional[Callable[[bool], bool]] = None,
    ) -> Generator:
        """Give each of ``blocks``, in order, a frame on ``g`` (§5.5).

        The driver's one eviction path, entered once per residency
        operation, peer group, reservation or retirement.  For each
        block, until it has a frame:

        1. take an unused frame, or a free one;
        2. otherwise evict one victim and retry: the oldest discarded
           block, whose frame is reclaimed with no transfer, else the
           least-recently-used used block, written back to the host.  A
           victim another operation holds locked is skipped and keeps its
           place in its queue;
        3. when every victim is locked, wait on the first in-flight block
           that is not one of the caller's own ``locked`` blocks;
        4. when only the caller's own blocks are in flight, commandeer a
           reserved frame if a fault injector is installed, and otherwise
           raise :class:`OutOfMemoryError`.  So does a frame that is still
           missing after 10,000 waits in a row.

        Each frame is assigned as soon as it is taken, between the
        evictions.  A victim's frame goes straight to the waiting block
        when no unused frame arrived during the eviction; otherwise it is
        freed, and a discarded victim whose PTE clear has to wait frees it
        before the wait.  A reservation or retirement passes ``claim`` and
        ``range(nframes)`` instead of blocks: ``claim(evicted)`` replaces
        step 1, taking one free frame for the caller or returning False
        when there is none; ``evicted`` tells whether this routine
        evicted a victim since the previous call.
        """
        env = self.env
        advance = env.advance
        timeout = env.timeout
        inflight = self._inflight
        counters = self.counters
        allocator = g.allocator
        unused = g.queues.unused
        used = g.queues.used
        discarded = (
            g.queues.discarded if self.config.discarded_queue_enabled else None
        )
        page_table = g.page_table
        cpu_table = self.cpu_page_table
        d2h_engine = g.engines.d2h
        migration = self.migration
        link = migration.link
        traced = self.tracer.enabled
        d2h = TransferDirection.DEVICE_TO_HOST
        eviction = TransferReason.EVICTION
        own = None
        evicted = False
        for block in blocks:
            stalls = 0
            while True:
                # 1. A frame that needs no eviction.
                if claim is not None:
                    taken = claim(evicted)
                    evicted = False
                    if taken:
                        break
                elif unused:
                    frame = unused.popleft()
                    frame.prepared = False
                    block.frame = frame
                    break
                elif allocator.free_frames:
                    block.frame = allocator.allocate()
                    break
                # 2. Evict the first unlocked victim.
                victim = (
                    None if discarded is None else discarded.pop_unlocked(inflight)
                )
                reclaim = victim is not None
                if not reclaim:
                    victim = used.pop_unlocked(inflight)
                if victim is not None:
                    stalls = 0
                    index = victim.index
                    inflight[index] = None
                    try:
                        started = env.now if traced else 0.0
                        if reclaim:
                            frame = victim.frame
                            cost = self._reclaim_discarded_block(g, victim)
                            if cost and not advance(cost):
                                # Another operation may take the frame
                                # during the wait.
                                if frame is not None:
                                    allocator.free(frame)
                                    frame = None
                                yield timeout(cost)
                        else:
                            cost = page_table.unmap_block(index)
                            if victim.populated and not victim.discarded:
                                if not advance(cost):
                                    yield timeout(cost)
                                span_bytes = victim.used_bytes
                                chunk = (
                                    SMALL_PAGE
                                    if victim.split
                                    else (
                                        span_bytes
                                        if span_bytes < BIG_PAGE
                                        else BIG_PAGE
                                    )
                                )
                                wire_started = env.now if traced else 0.0
                                # On an idle engine a wire wait that
                                # advances in place lets nothing else run,
                                # so the engine is held only when the
                                # writeback has to wait.
                                if (
                                    link._armed_faults
                                    or not d2h_engine.idle
                                    or not advance(
                                        link.transfer_time(span_bytes, chunk=chunk)
                                    )
                                ):
                                    request = d2h_engine.try_acquire()
                                    if request is None:
                                        request = d2h_engine.request()
                                        yield request
                                        if traced:
                                            wire_started = env.now
                                    try:
                                        if link._armed_faults:
                                            # An armed transient fault:
                                            # the command fails and is
                                            # retried.
                                            yield from migration._timed_command(
                                                link, span_bytes, chunk
                                            )
                                        else:
                                            # Read now: a link.degrade()
                                            # may have landed meanwhile.
                                            wire = link.transfer_time(
                                                span_bytes, chunk=chunk
                                            )
                                            if not advance(wire):
                                                yield timeout(wire)
                                    finally:
                                        d2h_engine.release(request)
                                if traced:
                                    migration.trace_command(
                                        f"link/{d2h.value}",
                                        eviction.value,
                                        wire_started,
                                        span_bytes,
                                        index,
                                        1,
                                    )
                                rec = migration.traffic.record(
                                    env.now,
                                    d2h,
                                    span_bytes,
                                    eviction,
                                    first_block=index,
                                    num_blocks=1,
                                    blocks=(victim,),
                                )
                                migration.rmt.on_transfer(
                                    index, span_bytes, d2h,
                                    eviction, rec, victim,
                                )
                                # A block freed during its writeback
                                # (release_blocks takes no lock and
                                # clears the residency) stays unmapped.
                                if victim.residency is not None:
                                    victim.residency = CPU
                                    map_cost = (
                                        0.0
                                        if cpu_table.is_mapped(index)
                                        else cpu_table.map_block(index)
                                    )
                                    if not advance(map_cost):
                                        yield timeout(map_cost)
                            else:
                                victim.residency = None
                                if not advance(cost):
                                    yield timeout(cost)
                            frame = victim.frame
                            victim.frame = None
                            counters.bump(Counters.EVICTED_BLOCKS)
                        if traced:
                            self._trace_eviction(
                                g,
                                "reclaim_discarded" if reclaim else "evict_used",
                                started,
                                victim,
                            )
                    finally:
                        event = inflight.pop(index, _MISSING)
                        if event is not None and event is not _MISSING:
                            event.succeed()  # type: ignore[attr-defined]
                    evicted = True
                    if frame is not None:
                        if claim is None and not unused:
                            # Hand the frame to the waiting block: what a
                            # free and the next turn's allocate would do.
                            frame.prepared = False
                            block.frame = frame
                            break
                        allocator.free(frame)
                    continue
                # 3. and 4. Every victim is locked.
                if own is None:
                    own = frozenset(b.index for b in locked)
                foreign = next((i for i in inflight if i not in own), None)
                if foreign is None:
                    if (
                        inflight
                        and self.chaos is not None
                        and allocator.reserved_frames > 0
                    ):
                        # Absolute pressure under fault injection: rather
                        # than fail the program, commandeer one frame from
                        # a co-tenant reservation (an injected pressure
                        # spike) — the real driver's managed memory always
                        # wins over a transient occupant.  Never reached
                        # fault-free, so baseline behavior is unchanged.
                        allocator.unreserve(1)
                        counters.bump(Counters.RECLAIMED_RESERVED_FRAMES)
                        continue
                    raise OutOfMemoryError(
                        f"{g.name}: out of memory — nothing is evictable, "
                        "and no other operation is in flight to wait for"
                    )
                stalls += 1
                if stalls > 10_000:
                    raise OutOfMemoryError(
                        f"{g.name}: allocation starved — concurrent "
                        "operations pin more memory than the device has"
                    )
                event = inflight[foreign]
                if event is None:
                    event = env.event()
                    inflight[foreign] = event
                self.frame_waiters += 1
                try:
                    yield event  # type: ignore[misc]
                finally:
                    self.frame_waiters -= 1

    def _free_pool_frame(self, g: _GpuState) -> bool:
        """Whether ``g`` has a free frame for a reservation or retirement,
        moving one off the unused queue to the free pool if it has none."""
        allocator = g.allocator
        if not allocator.free_frames and g.queues.unused:
            allocator.free(g.queues.unused.popleft())
            self.counters.bump(Counters.EVICTED_UNUSED_FRAMES)
        return allocator.free_frames > 0

    def _trace_eviction(
        self, g: _GpuState, name: str, started: float, block: VaBlock
    ) -> None:
        """Record one frame reclaim as an eviction span (tracer enabled):
        ``reclaim_discarded`` is transfer-free, ``evict_used`` is not."""
        tracer = self.tracer
        now = self.env.now
        tracer.span(
            f"{g.name}/evict",
            name,
            started,
            now,
            category="eviction",
            args={
                "block": block.index,
                "transfer_free": name == "reclaim_discarded",
            },
        )
        tracer.observe("eviction_seconds", now - started)

    def _reclaim_discarded_block(self, g: _GpuState, block: VaBlock) -> float:
        """Detach a discarded block from its frame without any transfer
        (§5.3/§5.6); returns the time cost.  The caller frees the frame
        or hands it on."""
        cost = 0.0
        if g.page_table.is_mapped(block.index):
            # Lazy discard left the mapping in place; destroy it now
            # (§5.6).  The eviction process batches its TLB shootdowns,
            # so only the PTE clear is charged per block here.
            cost += g.page_table.unmap_block(block.index, invalidate_tlb=False)
        if block.written_since_discard:
            # The program re-purposed the region without the mandatory
            # prefetch: its new values are lost (§5.2 misuse).
            self.counters.bump(Counters.LAZY_MISUSES)
            self.oracle.record_data_loss(
                self.env.now,
                block,
                "lazy-discarded block reclaimed after an unnotified write",
            )
            if self.config.strict_lazy:
                raise DiscardSemanticsError(
                    f"block {block.index} re-purposed after UvmDiscardLazy "
                    "without the mandatory prefetch notification"
                )
        block.frame = None
        block.residency = None
        block.populated = False
        self.counters.bump(Counters.EVICTED_DISCARDED_BLOCKS)
        return cost

    # ------------------------------------------------------------------
    # mapping helpers
    # ------------------------------------------------------------------

    def _ensure_cpu_mapped(self, block: VaBlock) -> float:
        if self.cpu_page_table.is_mapped(block.index):
            return 0.0
        return self.cpu_page_table.map_block(block.index)

    # ------------------------------------------------------------------
    # per-block residency locking
    # ------------------------------------------------------------------

    def try_lock_blocks(self, blocks: Sequence[VaBlock]) -> bool:
        """Claim ``blocks`` if no residency operation is in flight on any
        of them; otherwise claim nothing and return ``False``.

        The uncontended case of :meth:`lock_blocks` as a plain call, so a
        residency operation creates no generator unless it must wait.
        """
        inflight = self._inflight
        for block in blocks:
            if block.index in inflight:
                return False
        for block in blocks:
            inflight[block.index] = None
        return True

    def lock_blocks(self, blocks: Sequence[VaBlock]) -> Generator:
        """Wait until no residency operation is in flight on ``blocks``,
        then claim them.  Must be paired with :meth:`unlock_blocks`.

        Driver clients (the discard managers) take these locks too: their
        state transitions must not interleave with an in-flight eviction
        or migration of the same block — e.g. a pressure-spike eviction
        that has popped a block from the used queue while a discard still
        expects to find it there.  Yields nothing when no block is
        contended, so uncontended traces are unchanged.
        """
        inflight = self._inflight
        while True:
            # Wait in block order.  A set of events would iterate in
            # address order, and the order decides where this process
            # joins each event's callback list, so runs of one program
            # could take different schedules.
            waiting = {}
            for b in blocks:
                index = b.index
                if index in inflight:
                    event = inflight[index]
                    if event is None:
                        event = self.env.event()
                        inflight[index] = event
                    waiting[event] = None
            if not waiting:
                break
            for event in waiting:
                yield event
        for block in blocks:
            inflight[block.index] = None

    def unlock_blocks(self, blocks: Sequence[VaBlock]) -> None:
        """Release locks taken by :meth:`lock_blocks` or
        :meth:`try_lock_blocks`."""
        inflight = self._inflight
        for block in blocks:
            event = inflight.pop(block.index, _MISSING)
            if event is not None and event is not _MISSING:
                event.succeed()  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # making blocks resident on a GPU (faults and prefetch share this)
    # ------------------------------------------------------------------

    def _detach_gpu_residency(self, block: VaBlock) -> float:
        """Drop ``block``'s current GPU residency without any transfer.

        Used when a block that is (dead) on one GPU is re-homed to the
        CPU or a peer: unmaps, forgets queue membership and frees the
        frame.  Returns the accumulated time cost.
        """
        if not block.on_gpu:
            return 0.0
        peer = self._gpu(block.residency)  # type: ignore[arg-type]
        peer.queues.forget(block)
        cost = 0.0
        if peer.page_table.is_mapped(block.index):
            cost += peer.page_table.unmap_block(block.index)
        frame = block.frame
        block.frame = None
        block.residency = None
        if frame is not None:
            peer.allocator.free(frame)
        return cost

    def make_resident_gpu(
        self,
        gpu: str,
        blocks: Sequence[VaBlock],
        reason: TransferReason,
        via_prefetch: bool,
    ) -> Generator:
        """Bring ``blocks`` to GPU residency, evicting/zeroing/migrating.

        Serialized per block against concurrent residency operations from
        other streams (prefetch racing a fault on the same window).

        Operations larger than the device are processed in chunks — the
        real driver walks a prefetch range va_block by va_block, so a
        single `cudaMemPrefetchAsync` of an oversubscribing range streams
        through the GPU rather than deadlocking against itself.
        """
        blocks = list(blocks)
        limit = self._gpu(gpu).chunk_limit
        if len(blocks) > limit:
            for start in range(0, len(blocks), limit):
                yield from self.make_resident_gpu(
                    gpu, blocks[start : start + limit], reason, via_prefetch
                )
            return
        if not self.try_lock_blocks(blocks):
            yield from self.lock_blocks(blocks)
        try:
            yield from self._make_resident_gpu_locked(
                gpu, blocks, reason, via_prefetch
            )
        finally:
            self.unlock_blocks(blocks)

    def _make_resident_gpu_locked(
        self,
        gpu: str,
        blocks: Sequence[VaBlock],
        reason: TransferReason,
        via_prefetch: bool,
    ) -> Generator:
        g = self._gpu(gpu)
        gpu_name = g.name
        tracer = self.tracer
        counters = self.counters
        page_table = g.page_table
        used_q = g.queues.used
        recency_only = 0
        revive_zeroed = 0
        revive_cost = 0.0
        touched: List[VaBlock] = []
        revived: List[VaBlock] = []
        zero_blocks: List[VaBlock] = []
        migrate_blocks: List[VaBlock] = []
        peer_blocks: List[VaBlock] = []
        for block in blocks:
            res = block.residency
            if res == gpu_name:
                if not block.discarded:
                    # Already resident: recency update only.
                    touched.append(block)
                    recency_only += 1
                    continue
                # Discarded but still resident here: revive in place.
                if block.discard_kind is DiscardKind.EAGER:
                    # §5.7: the frame is still present; remap it.
                    revive_cost += page_table.map_block(block.index)
                    frame = block.frame
                    if frame is not None and not frame.prepared:
                        # Discarded pages cannot be assumed prepared.
                        revive_cost += g.zero_model.block_zero_time()
                        frame.prepared = True
                        revive_zeroed += 1
                    revive_kind = "revive_eager"
                else:
                    # §5.2: set the software dirty bit back.
                    revive_cost += self.config.lazy_dirty_clear_per_block
                    revive_kind = "revive_lazy"
                block.revive()
                block.populated = True
                revived.append(block)
                touched.append(block)
                if tracer.enabled:
                    tracer.instant(
                        f"{gpu_name}/discard",
                        revive_kind,
                        self.env.now,
                        category="revival",
                        args={"block": block.index},
                    )
            elif block.populated and not block.discarded:
                # Live data on the CPU, on a peer GPU, or (data whose
                # frame was dropped) nowhere.
                if res == CPU:
                    migrate_blocks.append(block)
                elif res is not None:
                    peer_blocks.append(block)
                else:
                    zero_blocks.append(block)
            else:
                # Never populated, discarded, or reclaimed: zero-fill fresh
                # memory.  This is the H2D transfer the discard directive
                # saves (§5.3).  A dead block on a peer GPU is reclaimed
                # there first.
                if res is not None and res != CPU:
                    revive_cost += self._detach_gpu_residency(block)
                zero_blocks.append(block)
        if revived:
            g.queues.discarded.remove_all(revived)
            counters.bump(Counters.DISCARD_REVIVALS, len(revived))
        if touched:
            used_q.touch_all(touched)
        if revive_zeroed:
            counters.bump(Counters.ZEROED_BLOCKS, revive_zeroed)
        if via_prefetch and recency_only:
            # §7.5.1: prefetches of already-resident data still walk the
            # range and refresh recency — pure overhead.
            counters.bump(Counters.PREFETCH_RECENCY_ONLY, recency_only)
            yield self.env.timeout(
                recency_only * self.config.recency_update_per_block
            )
        if revive_cost:
            yield self.env.timeout(revive_cost)

        # Acquire frames for everything that needs fresh physical memory.
        # In-flight blocks are in no queue yet, so eviction cannot steal
        # them out from under this batch.
        need_frames = zero_blocks + migrate_blocks
        if need_frames:
            yield from self._acquire_frames(g, need_frames, blocks)

        if zero_blocks:
            cost = 0.0
            cpu_table = self.cpu_page_table
            zero_time = g.zero_model.zero_time
            map_block = page_table.map_block
            for block in zero_blocks:
                index = block.index
                if cpu_table.is_mapped(index):
                    cost += cpu_table.unmap_block(index)
                cost += zero_time(block.used_bytes)
                cost += map_block(index)
                block.frame.prepared = True  # type: ignore[union-attr]
                block.residency = gpu_name
                if block.discarded:
                    block.revive()
                    if tracer.enabled:
                        tracer.instant(
                            f"{gpu_name}/discard",
                            "zero_fill_saved_h2d",
                            self.env.now,
                            category="discard",
                            args={"block": index},
                        )
                block.populated = True
            used_q.touch_all(zero_blocks)
            counters.bump(Counters.ZEROED_BLOCKS, len(zero_blocks))
            if not self.env.advance(cost):
                yield self.env.timeout(cost)

        if migrate_blocks:
            cost = 0.0
            cpu_table = self.cpu_page_table
            for block in migrate_blocks:
                index = block.index
                if cpu_table.is_mapped(index):
                    cost += cpu_table.unmap_block(index)
                cost += page_table.map_block(index)
            if not self.env.advance(cost):
                yield self.env.timeout(cost)
            yield from self.migration.transfer_blocks(
                migrate_blocks,
                TransferDirection.HOST_TO_DEVICE,
                reason,
                g.engines,
            )
            for block in migrate_blocks:
                block.frame.prepared = True  # type: ignore[union-attr]
                block.residency = gpu_name
            used_q.touch_all(migrate_blocks)

        if peer_blocks:
            yield from self._migrate_from_peers(g, peer_blocks, reason, blocks)

    def _migrate_from_peers(
        self,
        g: _GpuState,
        peer_blocks: Sequence[VaBlock],
        reason: TransferReason,
        locked: Sequence[VaBlock],
    ) -> Generator:
        """Move live blocks from other GPUs to ``g`` (D2D migration).

        With a peer link (NVLink/NVSwitch, §2.3) the data moves in one
        D2D hop occupying both GPUs' copy engines; without one it
        bounces through host memory — two transfers over the host link,
        both of which the traffic recorder sees (as on real PCIe systems
        without P2P).  ``locked`` are the blocks the calling operation
        holds.
        """
        by_source: Dict[str, List[VaBlock]] = {}
        for block in peer_blocks:
            by_source.setdefault(block.residency, []).append(block)  # type: ignore[arg-type]
        for source_name, group in by_source.items():
            source = self._gpu(source_name)
            cost = 0.0
            for block in group:
                source.queues.forget(block)
                if source.page_table.is_mapped(block.index):
                    cost += source.page_table.unmap_block(block.index)
            if cost:
                yield self.env.timeout(cost)
            # Acquire every destination frame, move the whole group as
            # coalesced spans (one ranged operation per run of contiguous
            # blocks), then remap in one batch — how the real driver
            # services a multi-block range.
            source_frames = []
            for block in group:
                source_frames.append(block.frame)
                block.frame = None
            yield from self._acquire_frames(g, group, locked)
            if self.p2p_link is not None:
                yield from self.migration.transfer_blocks_peer(
                    group, self.p2p_link, source.engines, g.engines
                )
            else:
                yield from self.migration.transfer_blocks(
                    group,
                    TransferDirection.DEVICE_TO_HOST,
                    reason,
                    source.engines,
                )
                yield from self.migration.transfer_blocks(
                    group,
                    TransferDirection.HOST_TO_DEVICE,
                    reason,
                    g.engines,
                )
            map_cost = 0.0
            for block, source_frame in zip(group, source_frames):
                source.allocator.free(source_frame)
                block.frame.prepared = True  # type: ignore[union-attr]
                block.residency = g.name
                map_cost += g.page_table.map_block(block.index)
            g.queues.used.touch_all(group)
            if map_cost:
                yield self.env.timeout(map_cost)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def handle_gpu_faults(
        self,
        gpu: str,
        blocks: Sequence[VaBlock],
        reason: TransferReason = TransferReason.FAULT_MIGRATION,
    ) -> Generator:
        """Service one batch of replayable GPU faults."""
        blocks = list(blocks)
        if not blocks:
            return
        tracer = self.tracer
        started = self.env.now if tracer.enabled else 0.0
        chaos = self.chaos
        if chaos is not None:
            blocks = yield from chaos.on_fault_batch(self, gpu, blocks)
        self.counters.bump(Counters.GPU_FAULT_BATCHES)
        self.counters.bump(Counters.GPU_FAULTED_BLOCKS, len(blocks))
        cost = (
            self.config.fault_batch_overhead
            + len(blocks) * self.config.fault_per_block
        )
        if not self.env.advance(cost):
            yield self.env.timeout(cost)
        if self.config.auto_prefetch_enabled:
            self._maybe_auto_prefetch(gpu, blocks)
        # Inlined make_resident_gpu for the no-chunking case: the fault
        # path is the hottest caller, and the wrapper frame would sit in
        # the resume chain of every event the residency operation emits.
        if len(blocks) > self._gpu(gpu).chunk_limit:
            yield from self.make_resident_gpu(
                gpu, blocks, reason, via_prefetch=False
            )
        else:
            if not self.try_lock_blocks(blocks):
                yield from self.lock_blocks(blocks)
            try:
                yield from self._make_resident_gpu_locked(
                    gpu, blocks, reason, via_prefetch=False
                )
            finally:
                self.unlock_blocks(blocks)
        if tracer.enabled:
            now = self.env.now
            tracer.span(
                f"{gpu}/faults",
                "fault_batch",
                started,
                now,
                category="fault",
                args={"blocks": len(blocks)},
            )
            tracer.observe("fault_batch_seconds", now - started)
            tracer.observe("fault_batch_blocks", len(blocks))

    def _maybe_auto_prefetch(self, gpu: str, faulted: Sequence[VaBlock]) -> None:
        """Stream detection + prefetch-ahead (extension, [21, 22]).

        If the fault batch continues an ascending contiguous run of block
        indices, the faulting buffer is being streamed; kick off a
        background prefetch of the next blocks so the following waves hit
        resident memory.  Runs as a separate process: it overlaps the
        fault service it was triggered by.
        """
        indices = sorted(b.index for b in faulted)
        contiguous = all(b - a == 1 for a, b in zip(indices, indices[1:]))
        state = self._stream_state.setdefault(gpu, {"next": -1, "streak": 0})
        if contiguous and indices[0] == state["next"]:
            state["streak"] += len(indices)
        elif contiguous:
            state["streak"] = len(indices)
        else:
            state["streak"] = 0
        state["next"] = indices[-1] + 1
        if state["streak"] < self.config.auto_prefetch_trigger:
            return
        buffer = faulted[-1].buffer
        if buffer is None:
            return
        ahead = [
            b
            for b in buffer.blocks
            if indices[-1] < b.index <= indices[-1] + self.config.auto_prefetch_depth
            and b.residency != gpu
        ]
        if not ahead:
            return
        self.counters.bump(Counters.AUTO_PREFETCHED_BLOCKS, len(ahead))
        self.env.process(
            self.make_resident_gpu(
                gpu, ahead, TransferReason.PREFETCH, via_prefetch=True
            )
        )

    def gpu_needs_fault(self, gpu: str, block: VaBlock) -> bool:
        """Whether a GPU access to ``block`` would fault right now.

        Faults occur when the GPU has no valid mapping — either the block
        is remote, or `UvmDiscard` eagerly destroyed the mapping (§5.1).
        A lazily-discarded resident block is still mapped, so accesses
        sail through without the driver noticing (the §5.2 hazard).
        """
        g = self._gpu(gpu)
        return not g.page_table.is_mapped(block.index)

    # ------------------------------------------------------------------
    # making blocks resident on the CPU
    # ------------------------------------------------------------------

    def make_resident_cpu(
        self,
        blocks: Sequence[VaBlock],
        reason: TransferReason,
        charge_faults: bool,
    ) -> Generator:
        """Bring ``blocks`` to host residency (CPU faults or prefetch)."""
        blocks = list(blocks)
        if not self.try_lock_blocks(blocks):
            yield from self.lock_blocks(blocks)
        try:
            yield from self._make_resident_cpu_locked(blocks, reason, charge_faults)
        finally:
            self.unlock_blocks(blocks)

    def _make_resident_cpu_locked(
        self,
        blocks: Sequence[VaBlock],
        reason: TransferReason,
        charge_faults: bool,
    ) -> Generator:
        needed = [b for b in blocks if b.residency != CPU]
        cost = 0.0
        if charge_faults and needed:
            cost += len(needed) * self.config.cpu_fault_overhead
            self.counters.bump(Counters.CPU_FAULTED_BLOCKS, len(needed))
        migrate_by_gpu: Dict[str, List[VaBlock]] = {}
        for block in needed:
            if block.on_gpu:
                g = self._gpu(block.residency)  # type: ignore[arg-type]
                g.queues.forget(block)
                if g.page_table.is_mapped(block.index):
                    cost += g.page_table.unmap_block(block.index)
                if block.populated and not block.discarded:
                    migrate_by_gpu.setdefault(g.name, []).append(block)
                else:
                    # Discarded or unpopulated: reclaim with no transfer.
                    frame = block.frame
                    block.frame = None
                    if frame is not None:
                        g.allocator.free(frame)
                    block.residency = CPU
                    if block.discarded:
                        block.revive()
                    block.populated = False
                    cost += self._ensure_cpu_mapped(block)
            else:
                # First touch on the host: zero-filled CPU pages (Fig. 1 ①).
                block.residency = CPU
                if block.discarded:
                    block.revive()
                block.populated = False
                cost += self._ensure_cpu_mapped(block)
        if cost:
            yield self.env.timeout(cost)
        for gpu_name, group in migrate_by_gpu.items():
            g = self._gpu(gpu_name)
            yield from self.migration.transfer_blocks(
                group, TransferDirection.DEVICE_TO_HOST, reason, g.engines
            )
            map_cost = 0.0
            for block in group:
                frame = block.frame
                block.frame = None
                if frame is not None:
                    g.allocator.free(frame)
                block.residency = CPU
                map_cost += self._ensure_cpu_mapped(block)
            if map_cost:
                yield self.env.timeout(map_cost)

    # ------------------------------------------------------------------
    # prefetch (`cudaMemPrefetchAsync`)
    # ------------------------------------------------------------------

    def prefetch(self, blocks: Sequence[VaBlock], destination: str) -> Generator:
        """Pre-fault ``blocks`` at ``destination`` (§2.1).

        On a GPU destination this also performs `UvmDiscardLazy`'s
        mandatory dirty-bit notification (§5.2) via the lazy-revival path
        in :meth:`make_resident_gpu`.
        """
        blocks = list(blocks)
        if not blocks:
            return
        tracer = self.tracer
        started = self.env.now if tracer.enabled else 0.0
        cost = (
            self.config.prefetch_command_overhead
            + len(blocks) * self.config.prefetch_per_block
        )
        if not self.env.advance(cost):
            yield self.env.timeout(cost)
        self.counters.bump(Counters.PREFETCHED_BLOCKS, len(blocks))
        if destination == CPU:
            yield from self.make_resident_cpu(
                blocks, TransferReason.PREFETCH, charge_faults=False
            )
        else:
            yield from self.make_resident_gpu(
                destination, blocks, TransferReason.PREFETCH, via_prefetch=True
            )
        if tracer.enabled:
            tracer.span(
                f"{destination}/prefetch",
                "prefetch",
                started,
                self.env.now,
                category="prefetch",
                args={"blocks": len(blocks)},
            )
            tracer.observe("prefetch_blocks", len(blocks))

    # ------------------------------------------------------------------
    # discard state transitions (driven by repro.core managers)
    # ------------------------------------------------------------------

    def discard_blocks_eager(
        self, blocks: Sequence[VaBlock], cost: float = 0.0
    ) -> float:
        """Apply `UvmDiscard` to ``blocks`` (§5.1).

        Eagerly destroys every mapping so that any re-access faults.
        Returns ``cost`` plus each block's time cost, added in block
        order.  The caller batches blocks and charges one TLB
        invalidation per GPU per call on top.
        """
        if not blocks:
            return cost
        self.rmt.on_discards(blocks)
        self.oracle.record_discards(self.env.now, blocks)
        gpus = self._gpus
        keep = self.config.discarded_queue_enabled
        cpu_table = self.cpu_page_table
        eager = DiscardKind.EAGER
        for block in blocks:
            index = block.index
            block_cost = 0.0
            res = block.residency
            if res is not None and res != CPU:
                g = gpus[res]
                if g.page_table.is_mapped(index):
                    block_cost += g.page_table.unmap_block(
                        index, invalidate_tlb=False
                    )
                if not block.discarded:
                    g.queues.used.remove(block)
                    if keep:
                        g.queues.discarded.push(block)
                    else:
                        frame = block.frame
                        block.frame = None
                        block.residency = None
                        if frame is not None:
                            g.allocator.free(frame)
            if cpu_table.is_mapped(index):
                block_cost += cpu_table.unmap_block(index)
            block.mark_discarded(eager)
            cost += block_cost
        self.counters.bump(Counters.DISCARDED_BLOCKS, len(blocks))
        return cost

    def discard_block_eager(self, block: VaBlock) -> float:
        """:meth:`discard_blocks_eager` for one block; returns its cost."""
        return self.discard_blocks_eager((block,))

    def discard_blocks_lazy(
        self, blocks: Sequence[VaBlock], cost: float = 0.0
    ) -> float:
        """Apply `UvmDiscardLazy` to ``blocks`` (§5.2).

        Clears the software dirty bit without touching any mapping — far
        cheaper than the eager variant, but the program must prefetch
        before re-purposing the region.  Returns ``cost`` plus each
        block's time cost, added in block order.
        """
        if not blocks:
            return cost
        self.rmt.on_discards(blocks)
        self.oracle.record_discards(self.env.now, blocks)
        gpus = self._gpus
        keep = self.config.discarded_queue_enabled
        per_block = self.config.lazy_dirty_clear_per_block
        lazy = DiscardKind.LAZY
        for block in blocks:
            res = block.residency
            if res is not None and res != CPU and not block.discarded:
                g = gpus[res]
                g.queues.used.remove(block)
                if keep:
                    g.queues.discarded.push(block)
                else:
                    if g.page_table.is_mapped(block.index):
                        g.page_table.unmap_block(block.index)
                    frame = block.frame
                    block.frame = None
                    block.residency = None
                    if frame is not None:
                        g.allocator.free(frame)
            block.mark_discarded(lazy)
            cost += per_block
        self.counters.bump(Counters.DISCARDED_BLOCKS, len(blocks))
        return cost

    def discard_block_lazy(self, block: VaBlock) -> float:
        """:meth:`discard_blocks_lazy` for one block; returns its cost."""
        return self.discard_blocks_lazy((block,))

    # ------------------------------------------------------------------
    # program-access bookkeeping (RMT + semantics oracle)
    # ------------------------------------------------------------------

    def note_access(self, block: VaBlock, mode: AccessMode) -> None:
        """:meth:`note_accesses` for one block."""
        self.note_accesses((block,), mode)

    def note_accesses(self, blocks: Sequence[VaBlock], mode: AccessMode) -> None:
        """Record program accesses to ``blocks`` for RMT and the oracle.

        ``blocks`` is one operand's touch list for one wave, or one host
        access, in touch order; a block may repeat.  Must be called after
        residency is established (post-fault), in program order.  The RMT
        resolves the whole run first: its state is independent of the
        oracle's, which applies each touch in order.
        """
        now = self.env.now
        if mode.reads:
            self.rmt.on_reads(blocks)
            if mode.writes:
                self.oracle.record_writes(now, blocks, reads=True)
            else:
                self.oracle.validate_reads(now, blocks)
        else:
            self.rmt.on_overwrites(blocks)
            self.oracle.record_writes(now, blocks)

    def finalize(self) -> None:
        """End-of-run accounting: resolve all still-pending transfers."""
        self.rmt.finalize()
