"""FIR — finite impulse response filter (§7.2, Tables 3 and 4).

"The program iterates through a large input buffer, prefetches a window
of the host data to the FIR GPU kernel and calculates the FIR filter.
The target buffer to discard is the sliding window of the input buffer at
the end of each iteration, because the sliding window becomes useless."

Structure per window *i*:

1. prefetch input window *i* (H2D, overlaps the previous kernel) and
   prefault the matching output window,
2. FIR kernel: READ input window, WRITE output window,
3. discard the consumed input window.

Without discard, the consumed windows are LRU-evicted under memory
pressure — pure redundant D2H traffic, since nothing ever reads them
again.  Discard lets eviction reclaim them for free, so the savings are a
constant ≈(input − last window) at every oversubscription ratio, exactly
the paper's "consistently eliminate 5.56 GB".  At higher ratios the
*output* (live data) also overflows and its eviction traffic grows in
every system — the rising baseline of Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.access import AccessMode
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError
from repro.gpu.access import SequentialPattern
from repro.harness.pipeline import SplitWorkload
from repro.harness.systems import DiscardPolicy, System
from repro.units import BIG_PAGE, GB, align_up


@dataclass
class FirConfig:
    """FIR workload parameters (defaults match the paper's §7.2 setup)."""

    #: Total input signal size ("5.66 GB of input data is prefetched").
    input_bytes: int = int(5.66 * GB)
    #: Number of sliding windows the input is consumed in.
    num_windows: int = 8
    #: Sustained GPU throughput of the FIR kernel over its window bytes.
    kernel_throughput: float = 200 * GB
    #: Fault waves per kernel launch.
    waves: int = 8

    def __post_init__(self) -> None:
        if self.num_windows < 1:
            raise ConfigurationError("num_windows must be >= 1")
        if self.input_bytes < self.num_windows * BIG_PAGE:
            raise ConfigurationError("input too small for the window count")

    @property
    def window_bytes(self) -> int:
        """One window, rounded up to whole 2 MiB blocks."""
        return align_up(self.input_bytes // self.num_windows, BIG_PAGE)

    @property
    def app_bytes(self) -> int:
        """GPU memory consumption used for the oversubscription ratio:
        the input stream plus the equally sized impulse-response output."""
        return 2 * self.num_windows * self.window_bytes

    def scaled(self, factor: float) -> "FirConfig":
        """Shrink the workload for fast runs (pair with ``gpu.scaled``)."""
        return FirConfig(
            input_bytes=max(
                self.num_windows * BIG_PAGE, int(self.input_bytes * factor)
            ),
            num_windows=self.num_windows,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
        )


class FirWorkload(SplitWorkload):
    """Runs the FIR experiment for one evaluated system."""

    def __init__(self, config: Optional[FirConfig] = None) -> None:
        self.config = config or FirConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """The system-independent setup prefix: allocate the buffers and
        generate the input signal on the host.  CPU-only, so the runtime
        is quiescent (and snapshottable) when it finishes; the buffers
        are handed to :meth:`body_program` through ``cuda.session``."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            window = cfg.window_bytes
            total = cfg.num_windows * window
            signal = cuda.malloc_managed(total, "fir_input")
            response = cuda.malloc_managed(total, "fir_output")
            yield from cuda.host_write(signal)  # generate the input signal
            cuda.session["fir_input"] = signal
            cuda.session["fir_output"] = response

        return setup

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured body for ``system``, resuming from a completed
        :meth:`setup_program` (possibly in a forked runtime)."""
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            window = cfg.window_bytes
            signal = cuda.session["fir_input"]
            response = cuda.session["fir_output"]
            cuda.begin_measurement()  # §7.1: exclude input preprocessing
            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            previous_kernel = None
            for i in range(cfg.num_windows):
                in_rng = signal.subrange(i * window, window)
                out_rng = response.subrange(i * window, window)
                # Overlap: the prefetch runs on the transfer stream while
                # the previous window's kernel computes.
                cuda.prefetch_async(signal, rng=in_rng, stream=transfer)
                # Gating on the output prefetch (enqueued last on the
                # transfer stream) implies the input one completed too.
                prefetched = cuda.prefetch_async(
                    response, rng=out_rng, stream=transfer
                )
                kernel = KernelSpec(
                    f"fir_{i}",
                    [
                        BufferAccess(
                            signal, AccessMode.READ, in_rng, SequentialPattern()
                        ),
                        BufferAccess(
                            response, AccessMode.WRITE, out_rng, SequentialPattern()
                        ),
                    ],
                    duration=window / cfg.kernel_throughput,
                    waves=cfg.waves,
                )
                compute.wait_for(prefetched)  # kernel starts after its H2D
                previous_kernel = cuda.launch(kernel, stream=compute)
                # The consumed window is dead; FIR never revisits it, so
                # the site is not prefetch-paired and stays eager even in
                # the UvmDiscardLazy system (§7.1).
                mode = policy.mode_for(paired_with_prefetch=False)
                if mode is not None:
                    cuda.discard_async(signal, rng=in_rng, mode=mode, stream=compute)
            yield from cuda.synchronize()

        return body
