"""The CUDA runtime facade — the library's main entry point.

Wires together the discrete-event engine, the UVM driver, the kernel
executor and the discard managers into one object whose API mirrors the
CUDA calls the paper's listings use:

==============================  =========================================
Paper / CUDA                    :class:`CudaRuntime`
==============================  =========================================
``cudaMallocManaged``           :meth:`malloc_managed`
``cudaMemPrefetchAsync``        :meth:`prefetch_async`
``UvmDiscardAsync``             :meth:`discard_async` (mode="eager")
``UvmDiscardLazyAsync``         :meth:`discard_async` (mode="lazy")
kernel launch ``<<<...>>>``     :meth:`launch`
``cudaMalloc`` / ``cudaFree``   :meth:`malloc_device` / :meth:`free_device`
``cudaMemcpyAsync``             :meth:`memcpy_async`
``cudaDeviceSynchronize``       :meth:`synchronize`
host code touching UVM memory   :meth:`host_write` / :meth:`host_read`
==============================  =========================================

Programs are generators receiving the runtime (see ``examples/``)::

    def program(cuda):
        buf = cuda.malloc_managed(64 * MIB, "A")
        yield from cuda.host_write(buf)                  # initialize on CPU
        cuda.prefetch_async(buf, cuda.gpu.name)          # overlap H2D
        cuda.launch(my_kernel)
        cuda.discard_async(buf, mode="eager")            # data now dead
        yield from cuda.synchronize()

    runtime = CudaRuntime()
    runtime.run(program)
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from repro.access import AccessMode
from repro.core.discard import DiscardManager, DiscardOutcome
from repro.core.eager import UvmDiscard
from repro.core.lazy import UvmDiscardLazy
from repro.core.semantics import DataOracle
from repro.cuda.costs import ApiCostModel
from repro.cuda.device import GpuSpec, HostSpec, rtx_3080ti, ryzen_3900x
from repro.cuda.kernel import KernelSpec
from repro.cuda.memory import DeviceBuffer, ManagedBuffer
from repro.cuda.stream import CudaStream, synchronize_all
from repro.driver.config import UvmDriverConfig
from repro.driver.driver import CPU, UvmDriver
from repro.engine.core import Environment, Process
from repro.errors import ConfigurationError, OutOfMemoryError, SimulationError
from repro.gpu.access import IrregularPattern, SequentialPattern, StridedPattern
from repro.gpu.executor import GpuExecutor
from repro.instrument.trace import NULL_TRACER
from repro.instrument.traffic import TransferDirection, TransferReason
from repro.interconnect.link import Link
from repro.interconnect.pcie import pcie_gen4
from repro.memsim.zeroing import ZeroFillModel
from repro.vm.layout import AddressSpace, VaRange


def _pattern_fields(pattern) -> Dict[str, object]:
    """Serialize an access pattern for the ``program`` trace channel.

    Covers the built-in pattern vocabulary; custom
    :class:`~repro.gpu.access.AccessPattern` subclasses get their class
    name as the kind (trace export still works; replay rejects kinds it
    cannot reconstruct).
    """
    if isinstance(pattern, IrregularPattern):
        return {
            "kind": "irregular",
            "passes": pattern.passes,
            "seed": pattern.seed,
        }
    if isinstance(pattern, StridedPattern):
        return {"kind": "strided"}
    if isinstance(pattern, SequentialPattern):
        return {"kind": "sequential"}
    return {"kind": type(pattern).__name__}


class CudaRuntime:
    """A simulated single-GPU CUDA platform with UVM and discard support."""

    def __init__(
        self,
        gpu: Optional[GpuSpec] = None,
        host: Optional[HostSpec] = None,
        link: Optional[Link] = None,
        driver_config: Optional[UvmDriverConfig] = None,
        oracle: Optional[DataOracle] = None,
        env: Optional[Environment] = None,
        gpus: Optional[List[GpuSpec]] = None,
        p2p_link: Optional[Link] = None,
        remote_access: bool = False,
    ) -> None:
        if gpus is not None and gpu is not None:
            raise ConfigurationError("pass either gpu or gpus, not both")
        specs = list(gpus) if gpus else [gpu or rtx_3080ti()]
        if len({s.name for s in specs}) != len(specs):
            raise ConfigurationError("GPU names must be unique")
        self.env = env or Environment()
        self.gpu = specs[0]
        self.gpus: Dict[str, GpuSpec] = {s.name: s for s in specs}
        self.host = host or ryzen_3900x()
        self.link = link or pcie_gen4()
        self.driver = UvmDriver(
            self.env, self.link, driver_config, oracle, p2p_link=p2p_link
        )
        self.executors: Dict[str, GpuExecutor] = {}
        for spec in specs:
            self.driver.register_gpu(
                spec.name,
                spec.memory_bytes,
                ZeroFillModel(spec.zero_bandwidth),
            )
            self.executors[spec.name] = GpuExecutor(
                self.env, self.driver, spec, remote_access=remote_access
            )
        self.executor = self.executors[self.gpu.name]
        self.address_space = AddressSpace()
        self.costs = ApiCostModel()
        self.default_stream = CudaStream(self.env, "stream0")
        self._streams: List[CudaStream] = [self.default_stream]
        #: Simulated-time tracer; held on the runtime so streams created
        #: after :meth:`Tracer.install` inherit it.
        self.tracer = NULL_TRACER
        self.discard_managers: Dict[str, DiscardManager] = {
            "eager": UvmDiscard(self.driver),
            "lazy": UvmDiscardLazy(self.driver),
        }
        self._buffer_counter = 0
        #: Live managed allocations, in allocation order (see
        #: :meth:`managed_buffers`).
        self._managed: List[ManagedBuffer] = []
        #: Start of the measured region (see :meth:`begin_measurement`).
        self.measure_start = 0.0
        #: Scratch namespace for split-phase programs: a setup prefix
        #: stores its buffers here and the measured body retrieves them.
        #: Lives on the runtime (not in generator locals) so snapshots
        #: capture it and forks see forked buffers.
        self.session: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # snapshot/fork support
    # ------------------------------------------------------------------

    def snapshot_precheck(self) -> None:
        """Raise :class:`~repro.errors.SnapshotError` unless this runtime
        is quiescent and safe to deep-snapshot (see
        :mod:`repro.engine.snapshot`)."""
        from repro.errors import SnapshotError

        if not self.env.quiescent:
            raise SnapshotError(
                "runtime snapshot with events still on the heap; drain the "
                "simulation to quiescence first"
            )
        for stream in self._streams:
            tail = stream._tail
            if tail is not None and tail.callbacks is not None:
                raise SnapshotError(
                    f"runtime snapshot with unfinished work on stream "
                    f"{stream.name!r}"
                )
        self.driver.snapshot_precheck()

    # ------------------------------------------------------------------
    # program-op trace channel
    # ------------------------------------------------------------------

    def _program_op(self, op: str, handle: Optional[Process] = None, **fields) -> None:
        """Record one runtime-API call on the ``program`` track.

        The channel is the replayable shadow of the host program: each
        record carries the arguments :mod:`repro.workloads.replay` needs
        to re-enqueue the op against a fresh runtime.  Callers guard on
        ``self.tracer.enabled`` so untraced runs pay nothing.
        """
        record_id = self.tracer.instant(
            "program", op, self.env.now, category="program", args=fields
        )
        if handle is not None:
            self.tracer.note_op(handle, record_id)

    @staticmethod
    def _rng_fields(buffer: ManagedBuffer, rng: Optional[VaRange]):
        """``(offset, length)`` of ``rng`` relative to the buffer start."""
        if rng is None:
            return 0, buffer.nbytes
        return rng.start - buffer.va_range.start, rng.length

    def managed_buffers(self) -> List[ManagedBuffer]:
        """Live managed allocations, in allocation order."""
        return [buffer for buffer in self._managed if not buffer.freed]

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------

    def create_stream(self, name: Optional[str] = None) -> CudaStream:
        """`cudaStreamCreate`."""
        stream = CudaStream(self.env, name or f"stream{len(self._streams)}")
        stream.tracer = self.tracer
        self._streams.append(stream)
        if self.tracer.enabled:
            self._program_op("stream", name=stream.name)
        return stream

    def streams(self) -> List[CudaStream]:
        """All streams created so far (the default stream first)."""
        return list(self._streams)

    def _stream(self, stream: Optional[CudaStream]) -> CudaStream:
        return stream if stream is not None else self.default_stream

    # ------------------------------------------------------------------
    # managed memory (UVM)
    # ------------------------------------------------------------------

    def malloc_managed(
        self,
        nbytes: int,
        name: Optional[str] = None,
        array: Optional[np.ndarray] = None,
    ) -> ManagedBuffer:
        """`cudaMallocManaged`: reserve unified VA; populate lazily."""
        if array is not None and array.nbytes != nbytes:
            raise ConfigurationError(
                f"backing array is {array.nbytes} bytes, buffer is {nbytes}"
            )
        if name is None:
            name = f"managed{self._buffer_counter}"
        self._buffer_counter += 1
        va = self.address_space.allocate(nbytes)
        buffer = ManagedBuffer(name, va, array=array)
        self.driver.register_blocks(buffer.blocks)
        self._managed.append(buffer)
        if self.tracer.enabled:
            self._program_op(
                "malloc",
                buffer=buffer.name,
                nbytes=nbytes,
                backed=array is not None,
            )
        return buffer

    def free(self, buffer: ManagedBuffer) -> None:
        """`cudaFree` on managed memory: residency dropped, data dead."""
        if buffer.freed:
            raise SimulationError(f"double free of {buffer.name!r}")
        if self.tracer.enabled:
            self._program_op("free", buffer=buffer.name)
        self.driver.release_blocks(buffer.blocks)
        self.address_space.free(buffer.va_range)
        buffer.freed = True

    # ------------------------------------------------------------------
    # host-side access to managed memory (CPU faults)
    # ------------------------------------------------------------------

    def _host_access(
        self, buffer: ManagedBuffer, mode: AccessMode, rng: Optional[VaRange]
    ) -> Generator:
        if self.tracer.enabled:
            offset, length = self._rng_fields(buffer, rng)
            self._program_op(
                "host_access",
                buffer=buffer.name,
                mode=mode.value,
                offset=offset,
                length=length,
            )
        blocks = buffer.blocks_in(rng)
        yield from self.driver.make_resident_cpu(
            blocks, TransferReason.FAULT_MIGRATION, charge_faults=True
        )
        self.driver.note_accesses(blocks, mode)
        nbytes = rng.length if rng is not None else buffer.nbytes
        yield self.env.timeout(nbytes / self.host.memory_bandwidth)

    def host_write(
        self, buffer: ManagedBuffer, rng: Optional[VaRange] = None
    ) -> Generator:
        """Host code fully overwrites ``rng`` of the buffer (synchronous)."""
        yield from self._host_access(buffer, AccessMode.WRITE, rng)

    def host_read(
        self, buffer: ManagedBuffer, rng: Optional[VaRange] = None
    ) -> Generator:
        """Host code reads ``rng`` of the buffer (synchronous)."""
        yield from self._host_access(buffer, AccessMode.READ, rng)

    def host_update(
        self, buffer: ManagedBuffer, rng: Optional[VaRange] = None
    ) -> Generator:
        """Host read-modify-write of ``rng`` (synchronous)."""
        yield from self._host_access(buffer, AccessMode.READWRITE, rng)

    # ------------------------------------------------------------------
    # async UVM operations
    # ------------------------------------------------------------------

    def prefetch_async(
        self,
        buffer: ManagedBuffer,
        destination: Optional[str] = None,
        rng: Optional[VaRange] = None,
        stream: Optional[CudaStream] = None,
    ) -> Process:
        """`cudaMemPrefetchAsync` to ``destination`` (default: the GPU)."""
        dest = destination if destination is not None else self.gpu.name
        if dest != CPU and dest not in self.driver.gpu_names():
            raise ConfigurationError(f"unknown prefetch destination {dest!r}")
        blocks = buffer.blocks_in(rng)
        target = self._stream(stream)
        process = target.enqueue(
            lambda: self.driver.prefetch(blocks, dest),
            label=f"prefetch:{buffer.name}",
        )
        if self.tracer.enabled:
            offset, length = self._rng_fields(buffer, rng)
            self._program_op(
                "prefetch",
                handle=process,
                buffer=buffer.name,
                dest=dest,
                offset=offset,
                length=length,
                stream=target.name,
            )
        return process

    def discard_async(
        self,
        buffer: ManagedBuffer,
        rng: Optional[VaRange] = None,
        mode: str = "eager",
        stream: Optional[CudaStream] = None,
    ) -> Process:
        """`UvmDiscardAsync` / `UvmDiscardLazyAsync` (§4).

        Enqueued on the stream like any memory operation, so it executes
        strictly after previously enqueued kernels — the ordering §4.2
        requires.  The process's value is a
        :class:`~repro.core.discard.DiscardOutcome`.
        """
        try:
            manager = self.discard_managers[mode]
        except KeyError:
            raise ConfigurationError(
                f"unknown discard mode {mode!r}; expected one of "
                f"{sorted(self.discard_managers)}"
            ) from None
        target = rng if rng is not None else buffer.va_range
        blocks = list(buffer.blocks)
        queue = self._stream(stream)
        process = queue.enqueue(
            lambda: manager.discard_range(blocks, target),
            label=f"discard_{mode}:{buffer.name}",
        )
        if self.tracer.enabled:
            offset, length = self._rng_fields(buffer, rng)
            self._program_op(
                "discard",
                handle=process,
                buffer=buffer.name,
                mode=mode,
                offset=offset,
                length=length,
                stream=queue.name,
            )
        return process

    def launch(
        self,
        kernel: KernelSpec,
        stream: Optional[CudaStream] = None,
        device: Optional[str] = None,
    ) -> Process:
        """Launch a kernel asynchronously on ``stream`` (default GPU
        unless ``device`` names another registered GPU)."""
        try:
            executor = self.executors[device or self.gpu.name]
        except KeyError:
            raise ConfigurationError(f"unknown device {device!r}") from None
        queue = self._stream(stream)
        process = queue.enqueue(
            lambda: executor.run_kernel(kernel), label=kernel.name
        )
        if self.tracer.enabled:
            accesses = []
            for acc in kernel.accesses:
                offset, length = self._rng_fields(acc.buffer, acc.rng)
                accesses.append(
                    {
                        "buffer": acc.buffer.name,
                        "mode": acc.mode.value,
                        "offset": offset,
                        "length": length,
                        "pattern": _pattern_fields(acc.pattern),
                    }
                )
            self._program_op(
                "kernel",
                handle=process,
                kernel=kernel.name,
                duration=kernel.duration,
                flops=kernel.flops,
                waves=kernel.waves,
                functional=kernel.fn is not None,
                device=device or self.gpu.name,
                stream=queue.name,
                accesses=accesses,
            )
        return process

    def launch_raw(
        self,
        name: str,
        duration: float,
        stream: Optional[CudaStream] = None,
    ) -> Process:
        """Launch a pure-compute kernel with no UVM interaction.

        Used by the No-UVM baselines, whose kernels run entirely out of
        explicit device buffers and never fault.
        """

        def body() -> Generator:
            request = self.executor.sm_engine.request()
            yield request
            try:
                self.executor.kernels_launched += 1
                if duration > 0:
                    yield self.env.timeout(duration)
            finally:
                self.executor.sm_engine.release(request)

        queue = self._stream(stream)
        process = queue.enqueue(body, label=name)
        if self.tracer.enabled:
            self._program_op(
                "kernel_raw",
                handle=process,
                kernel=name,
                duration=duration,
                stream=queue.name,
            )
        return process

    # ------------------------------------------------------------------
    # explicit (No-UVM) memory management
    # ------------------------------------------------------------------

    def malloc_device(self, nbytes: int, name: Optional[str] = None) -> Generator:
        """`cudaMalloc`: synchronous, Table-2 cost; returns a DeviceBuffer."""
        if name is None:
            name = f"device{self._buffer_counter}"
        self._buffer_counter += 1
        self.driver.reserve_gpu_memory(self.gpu.name, nbytes)
        yield self.env.timeout(self.costs.malloc_device(nbytes))
        return DeviceBuffer(name, nbytes, self.gpu.name)

    def free_device(self, buffer: DeviceBuffer) -> Generator:
        """`cudaFree`: synchronous, Table-2 cost."""
        if buffer.freed:
            raise SimulationError(f"double free of {buffer.name!r}")
        buffer.freed = True
        self.driver.release_gpu_memory(self.gpu.name, buffer.nbytes)
        yield self.env.timeout(self.costs.free_device(buffer.nbytes))

    def memcpy_async(
        self,
        nbytes: int,
        direction: TransferDirection,
        stream: Optional[CudaStream] = None,
        reason: TransferReason = TransferReason.MEMCPY,
        device: Optional[str] = None,
    ) -> Process:
        """`cudaMemcpyAsync` of ``nbytes`` (explicit-management baselines).

        ``device`` selects whose copy engines carry the transfer (the
        default GPU otherwise).
        """
        engines = self.driver._gpu(device or self.gpu.name).engines
        queue = self._stream(stream)
        process = queue.enqueue(
            lambda: self.driver.migration.raw_transfer(
                nbytes, direction, reason, engines
            ),
            label=f"memcpy_{direction.value}",
        )
        if self.tracer.enabled:
            self._program_op(
                "memcpy",
                handle=process,
                direction=direction.value,
                nbytes=nbytes,
                reason=reason.value,
                device=device or self.gpu.name,
                stream=queue.name,
            )
        return process

    # ------------------------------------------------------------------
    # synchronization and top-level driving
    # ------------------------------------------------------------------

    def synchronize(self, stream: Optional[CudaStream] = None) -> Generator:
        """`cudaStreamSynchronize` / `cudaDeviceSynchronize` (no stream)."""
        if self.tracer.enabled:
            self._program_op(
                "sync", stream=None if stream is None else stream.name
            )
        if stream is not None:
            yield from stream.synchronize()
        else:
            yield from synchronize_all(self.env, self._streams)

    def run(self, program) -> float:
        """Run a host program generator to completion; returns elapsed time.

        The program receives this runtime as its single argument.  After
        it finishes, remaining asynchronous work is drained and the RMT
        classifier finalized.
        """
        process = self.env.process(program(self))
        try:
            self.env.run(until=process)
        except SimulationError:
            if self.env.quiescent and self.driver.frame_waiters:
                # Memory deadlock: operations each pin blocks, then park
                # waiting for a frame another one holds, and nothing is
                # left to release one.  The device is simply too small.
                raise OutOfMemoryError(
                    f"{self.gpu.name}: memory deadlock — "
                    f"{self.driver.frame_waiters} operations wait for "
                    "frames that concurrent operations pin"
                ) from None
            raise
        self.env.run()
        self.driver.finalize()
        return self.env.now

    @property
    def elapsed(self) -> float:
        """Current simulated time in seconds."""
        return self.env.now

    def begin_measurement(self) -> None:
        """Mark the start of the measured region.

        The paper's timings exclude input preprocessing ("These
        measurements exclude the pre-processing of input data", §7.5);
        workloads call this after host-side data generation so
        :attr:`measured_seconds` reports GPU runtime only.
        """
        if self.tracer.enabled:
            self._program_op("measure")
        self.measure_start = self.env.now

    @property
    def measured_seconds(self) -> float:
        """Time since :meth:`begin_measurement` (whole run if never called)."""
        return self.env.now - self.measure_start

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Headline numbers for experiment reports."""
        traffic = self.driver.traffic
        return {
            "elapsed_seconds": self.env.now,
            "traffic_gb": traffic.total_gb,
            "traffic_h2d_gb": traffic.bytes_h2d / 1e9,
            "traffic_d2h_gb": traffic.bytes_d2h / 1e9,
            "redundant_gb": self.driver.rmt.redundant_bytes / 1e9,
            "useful_gb": self.driver.rmt.useful_bytes / 1e9,
        }
