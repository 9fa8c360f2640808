"""The deterministic fault injector.

One :class:`ChaosInjector` hooks an environment's event loop (via
:meth:`repro.engine.core.Environment.add_monitor`) and the UVM driver's
fault-servicing and kernel-execution paths, and fires the fault
mechanisms its :class:`~repro.chaos.schedule.ChaosConfig` enables.

Determinism
-----------
Every mechanism owns a dedicated ``random.Random(f"{seed}:{tag}")``
stream, and every draw happens at a point that is itself deterministic —
either at a monitor firing (ordered by the engine's event count) or
inside a driver/executor hook (ordered by the simulation).  Injections
add events and therefore shift *later* event counts, but they do so
identically on every run of the same seed, so the whole schedule — and
the resulting simulation trace — is exactly reproducible.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.chaos.schedule import ChaosConfig
from repro.instrument.counters import Counters
from repro.units import BIG_PAGE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cuda.kernel import KernelSpec
    from repro.cuda.runtime import CudaRuntime
    from repro.driver.driver import UvmDriver
    from repro.driver.va_block import VaBlock
    from repro.engine.core import Environment
    from repro.gpu.executor import GpuExecutor


def _stream(seed: int, tag: str) -> random.Random:
    """A mechanism-private random stream, stable across processes."""
    return random.Random(f"{seed}:{tag}")


class _Periodic:
    """Event-count scheduler for one mechanism: mean-interval firings."""

    __slots__ = ("rng", "interval", "next_fire")

    def __init__(self, seed: int, tag: str, interval: int) -> None:
        self.rng = _stream(seed, tag)
        self.interval = interval
        self.next_fire = 0
        if interval:
            self._advance(0)

    def _advance(self, count: int) -> None:
        # Uniform in [1, 2*interval): mean ~= interval, never zero.
        self.next_fire = count + self.rng.randrange(1, 2 * self.interval)

    def due(self, count: int) -> bool:
        if not self.interval or count < self.next_fire:
            return False
        self._advance(count)
        return True


class ChaosInjector:
    """Seed-driven fault injection over one runtime.

    Usage::

        injector = ChaosInjector(ChaosConfig.default_storm(seed=7))
        injector.install(runtime)
        runtime.run(program)
        injector.uninstall()

    The injector must be installed *after* any snapshot/fork: snapshots
    are taken chaos-free, and each forked body installs its own injector
    so chaos never leaks into a shared setup prefix.
    """

    def __init__(self, config: ChaosConfig) -> None:
        config.validate()
        self.config = config
        seed = config.seed
        self._degrade = _Periodic(seed, "degrade", config.link_degrade_interval)
        self._transfer = _Periodic(
            seed, "transfer", config.transfer_fault_interval
        )
        self._ecc = _Periodic(seed, "ecc", config.ecc_retire_interval)
        self._storm = _Periodic(seed, "storm", config.replay_storm_interval)
        self._spike = _Periodic(seed, "spike", config.pressure_spike_interval)
        self._reorder_rng = _stream(seed, "reorder")
        self._abort_rng = _stream(seed, "abort")
        self._gpu_rng = _stream(seed, "gpu")
        #: ``(event_count, action)`` trail of every injection, for tests
        #: and reproducibility assertions.
        self.actions: List[Tuple[int, str]] = []
        self._runtime: Optional["CudaRuntime"] = None
        self._driver: Optional["UvmDriver"] = None
        self._env: Optional["Environment"] = None
        self._restore_link_at = 0
        self._unspike: List[Tuple[int, str, int]] = []
        self._storm_armed = False
        self._ecc_budget = 0
        self._current_kernel: Optional["KernelSpec"] = None
        self._aborts_left = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def install(self, runtime: "CudaRuntime") -> "ChaosInjector":
        """Attach to ``runtime``: engine monitor plus driver hook."""
        if self._runtime is not None:
            raise RuntimeError("ChaosInjector is already installed")
        self._runtime = runtime
        self._driver = runtime.driver
        self._env = runtime.env
        caps = [
            runtime.driver.inspect().gpus[name].capacity_frames
            for name in runtime.driver.gpu_names()
        ]
        self._ecc_budget = int(
            sum(caps) * self.config.ecc_max_retired_fraction
        )
        # Bound per-command fault consumption below the retry budget:
        # faults armed while a command is already mid-retry must not push
        # it past ``max_retries`` — chaos exercises the retry path, it
        # never makes a transfer fail outright.
        runtime.link.fault_consumption_limit = max(
            1, runtime.driver.migration.max_retries - 1
        )
        runtime.driver.chaos = self
        runtime.env.add_monitor(self._on_event)
        return self

    def uninstall(self) -> None:
        """Detach and quiesce: leftover injected processes are drained,
        the link is restored, and pending spikes are released."""
        if self._runtime is None:
            return
        self._env.remove_monitor(self._on_event)  # type: ignore[union-attr]
        # A spike reservation or ECC retirement can still be mid-eviction
        # when the program finishes; drain the event heap so the driver
        # is quiescent before any final strict invariant check.  With the
        # monitor removed no new injections arise, so the drain is finite
        # (and deterministic — both runs of a seed drain identically).
        try:
            self._env.run()  # type: ignore[union-attr]
        except Exception:
            pass  # teardown after a crashed run: best effort only
        if self._driver is not None and self._driver.chaos is self:
            self._driver.chaos = None
        link = self._runtime.link
        link.fault_consumption_limit = None
        if link.degraded:
            link.restore()
        for _count, gpu, frames in self._unspike:
            self._driver.release_gpu_memory(  # type: ignore[union-attr]
                gpu, frames * BIG_PAGE
            )
        self._unspike.clear()
        self._runtime = None
        self._driver = None
        self._env = None

    def _record(self, count: int, action: str) -> None:
        """Append to the action trail and, when tracing, mark an instant.

        The trace instant shares the action's label, so a Perfetto view
        of the ``chaos`` track reads exactly like :attr:`actions`.
        """
        self.actions.append((count, action))
        driver = self._driver
        if driver is not None:
            tracer = driver.tracer
            if tracer.enabled:
                tracer.instant(
                    "chaos",
                    action,
                    driver.env.now,
                    category="chaos",
                    args={"event_count": count},
                )

    # ------------------------------------------------------------------
    # the engine monitor
    # ------------------------------------------------------------------

    def _on_event(self, env: "Environment", count: int) -> None:
        if self._restore_link_at and count >= self._restore_link_at:
            self._restore_link_at = 0
            self._runtime.link.restore()  # type: ignore[union-attr]
            self._record(count, "link_restore")
        if self._unspike:
            still_held = []
            for due, gpu, frames in self._unspike:
                if count >= due:
                    self._driver.release_gpu_memory(  # type: ignore[union-attr]
                        gpu, frames * BIG_PAGE
                    )
                    self._record(count, f"unspike:{gpu}:{frames}")
                else:
                    still_held.append((due, gpu, frames))
            self._unspike = still_held
        if self._degrade.due(count):
            self._fire_degrade(count)
        if self._transfer.due(count):
            link = self._runtime.link  # type: ignore[union-attr]
            # Cap the backlog below the migration engine's retry budget:
            # chaos exercises the retry path, it never makes a transfer
            # fail outright.
            retries = self._driver.migration.max_retries  # type: ignore[union-attr]
            if link.armed_faults < max(1, retries - 1):
                link.inject_transfer_fault()
                self._record(count, "transfer_fault")
        if self._ecc.due(count):
            self._fire_ecc(count)
        if self._storm.due(count):
            self._storm_armed = True
            self._record(count, "storm_armed")
        if self._spike.due(count):
            self._fire_spike(count)

    def _fire_degrade(self, count: int) -> None:
        link = self._runtime.link  # type: ignore[union-attr]
        rng = self._degrade.rng
        factor = rng.uniform(
            self.config.link_degrade_factor_min,
            self.config.link_degrade_factor_max,
        )
        link.degrade(factor, extra_latency=self.config.link_degrade_extra_latency)
        self._restore_link_at = count + self.config.link_degrade_duration
        driver = self._driver
        if driver is not None:
            driver.counters.bump(Counters.LINK_DEGRADATIONS)
        self._record(count, f"link_degrade:{factor:.3f}")

    def _pick_gpu(self) -> Optional[str]:
        names = self._driver.gpu_names()  # type: ignore[union-attr]
        if not names:
            return None
        if len(names) == 1:
            return names[0]
        return self._gpu_rng.choice(names)

    def _fire_ecc(self, count: int) -> None:
        driver = self._driver
        if driver is None or self._ecc_budget <= 0:
            return
        gpu = self._pick_gpu()
        if gpu is None:
            return
        view = driver.inspect().gpus[gpu]
        # Never retire a frame the driver cannot vacate: require either a
        # free frame or at least one evictable queue entry, and keep a
        # healthy floor of capacity.
        evictable = (
            view.free_frames
            + view.unused_queue_frames
            + len(view.used_queue_blocks)
            + len(view.discarded_queue_blocks)
        )
        if evictable == 0 or view.capacity_frames <= 8:
            return
        self._ecc_budget -= 1
        self._env.process(driver.retire_frames(gpu, 1))  # type: ignore[union-attr]
        self._record(count, f"ecc_retire:{gpu}")

    def _fire_spike(self, count: int) -> None:
        driver = self._driver
        if driver is None:
            return
        gpu = self._pick_gpu()
        if gpu is None:
            return
        view = driver.inspect().gpus[gpu]
        frames = min(
            self.config.pressure_spike_frames,
            max(0, view.capacity_frames // 4),
        )
        if frames <= 0:
            return
        # The co-tenant's allocation evicts resident blocks to make room
        # (driver.reserve_gpu_frames), so spikes land even on a fully
        # subscribed GPU.  The release is scheduled once the reservation
        # process reports how many frames it actually got.
        self._env.process(self._spike_process(gpu, frames))  # type: ignore[union-attr]
        self._record(count, f"spike:{gpu}:{frames}")

    def _spike_process(self, gpu: str, frames: int):
        driver = self._driver
        if driver is None:
            return
        reserved = yield from driver.reserve_gpu_frames(gpu, frames)
        if not reserved:
            return
        driver.counters.bump(Counters.PRESSURE_SPIKES)
        env = self._env
        if env is not None and self._runtime is not None:
            self._unspike.append(
                (
                    env.event_count + self.config.pressure_spike_duration,
                    gpu,
                    reserved,
                )
            )
        else:  # uninstalled mid-flight: hand the frames straight back
            driver.release_gpu_memory(gpu, reserved * BIG_PAGE)

    # ------------------------------------------------------------------
    # driver/executor hooks
    # ------------------------------------------------------------------

    def on_fault_batch(
        self, driver: "UvmDriver", gpu: str, blocks: Sequence["VaBlock"]
    ):
        """Perturb one replayable-fault batch (driver hook; a generator).

        A pending replay storm re-delivers the batch ``replay_storm_factor``
        extra times before it is serviced — modelled as extra batch
        overhead.  Independently, the batch may be serviced in a permuted
        order; residency outcomes must not depend on within-batch order.
        """
        blocks = list(blocks)
        if self._storm_armed:
            self._storm_armed = False
            driver.counters.bump(Counters.FAULT_REPLAY_STORMS)
            extra = self.config.replay_storm_factor * (
                driver.config.fault_batch_overhead
                + len(blocks) * driver.config.fault_per_block
            )
            if extra > 0:
                yield driver.env.timeout(extra)
        p = self.config.batch_reorder_probability
        if p and len(blocks) > 1 and self._reorder_rng.random() < p:
            self._reorder_rng.shuffle(blocks)
            driver.counters.bump(Counters.FAULT_BATCH_REORDERS)
        return blocks

    def kernel_abort(self, executor: "GpuExecutor", kernel: "KernelSpec") -> bool:
        """Whether to kill the running kernel at this wave boundary."""
        p = self.config.kernel_abort_probability
        if not p:
            return False
        if kernel is not self._current_kernel:
            self._current_kernel = kernel
            self._aborts_left = self.config.kernel_abort_limit
        if self._aborts_left <= 0:
            return False
        if self._abort_rng.random() >= p:
            return False
        self._aborts_left -= 1
        driver = executor.driver
        driver.counters.bump(Counters.KERNEL_ABORTS)
        env = self._env
        if env is not None:
            self._record(env.event_count, f"abort:{kernel.name}")
        return True
