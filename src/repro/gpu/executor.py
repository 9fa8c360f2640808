"""Kernel executor: runs :class:`~repro.cuda.kernel.KernelSpec` on a GPU.

One kernel occupies the GPU's SM engine for its whole duration (the
simulator models a single compute queue, as the paper's single-stream
workloads do).  The kernel's footprint is processed in *waves*: each wave
first drains a batch of page faults for blocks the GPU cannot currently
access — non-resident blocks and blocks whose mappings `UvmDiscard`
eagerly destroyed (§5.1) — then records the program accesses for RMT
classification, then burns that wave's share of compute time.

GPU page faults "significantly hinder the thread-parallelism of GPU
kernels" (§2.1): fault stalls serialize with compute here, which is why
prefetching (overlapping transfers on the copy engine with compute on the
SM engine) wins.
"""

from __future__ import annotations

from typing import Generator, List, Tuple, TYPE_CHECKING

from repro.access import AccessMode
from repro.driver.driver import UvmDriver
from repro.driver.va_block import VaBlock
from repro.engine.core import Environment
from repro.engine.resources import Resource
from repro.instrument.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - circular-import guard, typing only
    from repro.cuda.device import GpuSpec
    from repro.cuda.kernel import KernelSpec


class GpuExecutor:
    """Executes kernels on one GPU against the UVM driver.

    ``remote_access=True`` models the cache-coherent interconnect mode of
    §2.3 (NVLink-attached GPUs as NUMA nodes): instead of faulting and
    migrating, the kernel's accesses to non-resident blocks are served as
    remote loads/stores over the link, with no residency change.  The
    paper's point — reproduced by the discussion benchmark — is that this
    does not remove the need for placement, migration or the discard
    directive: remote bandwidth is an order of magnitude below local.
    """

    def __init__(
        self,
        env: Environment,
        driver: UvmDriver,
        gpu: "GpuSpec",
        remote_access: bool = False,
    ) -> None:
        self.env = env
        self.driver = driver
        self.gpu = gpu
        self.remote_access = remote_access
        #: One kernel at a time: the device's compute queue.
        self.sm_engine = Resource(env, capacity=1, name="sm")
        self.kernels_launched = 0
        self.fault_stall_seconds = 0.0
        self.remote_bytes = 0
        #: Simulated-time tracer; no-op singleton unless one is installed.
        self.tracer = NULL_TRACER

    def _build_waves(
        self, kernel: "KernelSpec"
    ) -> List[List[Tuple[AccessMode, List[VaBlock]]]]:
        """Per wave, one ``(mode, blocks)`` group per operand, in access order."""
        waves: List[List[Tuple[AccessMode, List[VaBlock]]]] = [
            [] for _ in range(kernel.waves)
        ]
        for buffer_access in kernel.accesses:
            mode = buffer_access.mode
            per_access = buffer_access.pattern.waves(
                buffer_access.blocks(), kernel.waves
            )
            for wave, wave_blocks in zip(waves, per_access):
                if wave_blocks:
                    wave.append((mode, wave_blocks))
        return waves

    def run_kernel(self, kernel: "KernelSpec") -> Generator:
        """Simulation process executing one kernel launch."""
        request = self.sm_engine.request()
        yield request
        tracer = self.tracer
        started = self.env.now if tracer.enabled else 0.0
        restarts = 0
        try:
            self.kernels_launched += 1
            # Phase tag for byte attribution: every transfer recorded from
            # here until the next kernel starts executing served this
            # kernel.  A plain attribute store — free on the hot path.
            self.driver.traffic.phase = kernel.name
            waves = self._build_waves(kernel)
            compute_total = kernel.compute_seconds(self.gpu.effective_flops)
            compute_per_wave = compute_total / len(waves)
            # A fault is simply a missing GPU mapping (gpu_needs_fault);
            # bind the page-table probe once for the whole launch.
            unmapped = self.driver.gpu_page_table(self.gpu.name).unmapped
            note_accesses = self.driver.note_accesses
            chaos = self.driver.chaos
            restart = True
            while restart:
                restart = False
                for wave in waves:
                    # One fault batch per wave: the GPU's fault buffer fills
                    # with every miss the wave's warps produce, and the driver
                    # services them together.
                    missing: List[VaBlock] = []
                    for _mode, blocks in wave:
                        missing += unmapped(blocks)
                    if missing:
                        # A block touched twice faults once, in the order
                        # of its first touch.
                        missing = list(dict.fromkeys(missing))
                    if missing and self.remote_access:
                        yield from self._access_remotely(missing)
                    elif missing:
                        stall_start = self.env.now
                        yield from self.driver.handle_gpu_faults(
                            self.gpu.name, missing
                        )
                        self.fault_stall_seconds += self.env.now - stall_start
                    for mode, blocks in wave:
                        note_accesses(blocks, mode)
                    if compute_per_wave > 0 and not self.env.advance(
                        compute_per_wave
                    ):
                        yield self.env.timeout(compute_per_wave)
                    # Injected abort-and-retry: a transient execution fault
                    # (e.g. an uncorrectable ECC hit mid-kernel) kills the
                    # launch at a wave boundary; the runtime re-executes it
                    # from wave 0.  Re-servicing faults and re-noting
                    # accesses is idempotent for residency and the oracle,
                    # and ``kernel.fn`` runs only once, after the final
                    # successful pass — so functional results are
                    # unaffected.
                    if chaos is not None and chaos.kernel_abort(self, kernel):
                        restart = True
                        restarts += 1
                        break
            if kernel.fn is not None:
                kernel.fn()
            if tracer.enabled:
                now = self.env.now
                tracer.span(
                    f"{self.gpu.name}/compute",
                    kernel.name,
                    started,
                    now,
                    category="kernel",
                    args={"waves": len(waves), "restarts": restarts},
                )
                tracer.observe("kernel_seconds", now - started)
        finally:
            self.sm_engine.release(request)

    def _access_remotely(self, blocks: List[VaBlock]) -> "Generator":
        """Serve non-resident blocks as coherent remote accesses (§2.3).

        Data stays where it is (never-touched blocks are populated as
        zero-filled host pages first); the kernel pays the link's
        small-granule bandwidth for every touched byte, stalling the SMs
        just as long remote load latencies do on real NVLink systems.
        """
        from repro.instrument.traffic import TransferDirection, TransferReason

        untouched = [b for b in blocks if b.residency is None or b.discarded]
        if untouched:
            yield from self.driver.make_resident_cpu(
                untouched, TransferReason.REMOTE_ACCESS, charge_faults=False
            )
        nbytes = sum(b.used_bytes for b in blocks)
        self.remote_bytes += nbytes
        # Coherent loads move cacheline-granule packets: the link never
        # reaches its large-transfer bandwidth (the §2.3 gap).
        seconds = nbytes / self.driver.link.effective_bandwidth(64 * 1024)
        yield self.env.timeout(seconds)
        self.driver.traffic.record(
            self.env.now,
            TransferDirection.HOST_TO_DEVICE,
            nbytes,
            TransferReason.REMOTE_ACCESS,
            blocks=blocks,
        )
