"""2D stencil — Jacobi iteration over ping-pong grids (UVMBench's HPC family).

Each sweep reads the source grid with neighbor halos and writes the
target grid; the grids ping-pong between iterations.  Reading a
row-major grid tile-by-tile touches neighbor *rows* sequentially but
neighbor *columns* at a full-row stride — modelled by a strided source
sweep whose every wave spans the whole grid, so an oversubscribed run
thrashes even though each block is touched once (UVMBench,
arXiv 2007.09822, §IV).

The consumed source grid is dead after the sweep and discarded; the
next iteration prefetches it back as its write target, making every
discard except the last prefetch-paired — the radix-sort ping-pong
shape (§7.3) at stencil access granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.access import AccessMode
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError
from repro.gpu.access import SequentialPattern, StridedPattern
from repro.harness.pipeline import SplitWorkload
from repro.harness.systems import DiscardPolicy, System
from repro.units import BIG_PAGE, GB, align_up


@dataclass
class StencilConfig:
    """2D Jacobi stencil parameters."""

    #: Grid rows (float32 cells).
    rows: int = 1 << 14
    #: Grid columns.
    cols: int = 1 << 14
    #: Jacobi sweeps (one kernel per sweep, grids ping-pong).
    iterations: int = 6
    #: Sustained GPU throughput over the bytes a sweep touches.
    kernel_throughput: float = 200 * GB
    #: Fault waves per kernel launch.
    waves: int = 8

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("grid dimensions must be >= 1")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")

    @property
    def grid_bytes(self) -> int:
        """One grid, rounded up to whole 2 MiB blocks."""
        return align_up(self.rows * self.cols * 4, BIG_PAGE)

    @property
    def app_bytes(self) -> int:
        """GPU footprint: the two ping-pong grids."""
        return 2 * self.grid_bytes

    def scaled(self, factor: float) -> "StencilConfig":
        """Shrink the grid for fast runs (pair with ``gpu.scaled``).

        Scales rows only, so the column stride (the thrash-inducing
        halo distance) keeps its shape.
        """
        min_rows = -(-BIG_PAGE // (4 * self.cols))  # ceil: one whole block
        return StencilConfig(
            rows=max(min_rows, int(self.rows * factor)),
            cols=self.cols,
            iterations=self.iterations,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
        )


class StencilWorkload(SplitWorkload):
    """Runs the stencil experiment for one evaluated system."""

    def __init__(self, config: Optional[StencilConfig] = None) -> None:
        self.config = config or StencilConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """Allocate the grids and initialize the boundary values on the
        host (CPU-only, quiescent at the end)."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            grid_a = cuda.malloc_managed(cfg.grid_bytes, "stencil_grid_a")
            grid_b = cuda.malloc_managed(cfg.grid_bytes, "stencil_grid_b")
            yield from cuda.host_write(grid_a)  # initial + boundary values
            cuda.session["stencil_grid_a"] = grid_a
            cuda.session["stencil_grid_b"] = grid_b

        return setup

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured Jacobi sweeps for ``system``."""
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            grids = [
                cuda.session["stencil_grid_a"],
                cuda.session["stencil_grid_b"],
            ]
            cuda.begin_measurement()
            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            cuda.prefetch_async(grids[0], stream=transfer)
            for i in range(cfg.iterations):
                source = grids[i % 2]
                target = grids[(i + 1) % 2]
                # The target was discarded when it was iteration i-1's
                # source; the prefetch-before-write pairing keeps the
                # site lazy under UvmDiscardLazy.
                prefetched = cuda.prefetch_async(target, stream=transfer)
                kernel = KernelSpec(
                    f"stencil_sweep_{i}",
                    [
                        BufferAccess(
                            source, AccessMode.READ, pattern=StridedPattern()
                        ),
                        BufferAccess(
                            target, AccessMode.WRITE, pattern=SequentialPattern()
                        ),
                    ],
                    duration=2 * cfg.grid_bytes / cfg.kernel_throughput,
                    waves=cfg.waves,
                )
                compute.wait_for(prefetched)
                cuda.launch(kernel, stream=compute)
                # The consumed source grid is dead until iteration i+1
                # overwrites it; every discard but the last is paired.
                paired = i + 1 < cfg.iterations
                mode = policy.mode_for(paired_with_prefetch=paired)
                if mode is not None:
                    cuda.discard_async(source, mode=mode, stream=compute)
            yield from cuda.synchronize()

        return body
