"""BFS — level-synchronous breadth-first search (UVMBench's graph family).

Irregular graph traversal is the access shape the paper's five kernels
never exercise: the edge array is gathered in a data-dependent order, so
prefetching cannot stay ahead of the faults and an oversubscribed run
thrashes on the adjacency structure (UVMBench, arXiv 2007.09822, §IV).

Structure per level *l*:

1. prefetch the *next* frontier (the buffer discarded one level ago —
   the prefetch-paired site that stays lazy under UvmDiscardLazy),
2. BFS kernel: gather the edge array irregularly, READ the current
   frontier, WRITE the next frontier, update the visited map with a
   strided sweep,
3. discard the consumed current frontier — dead until level *l+2*
   overwrites it.

The edge array itself is never discarded (it is re-gathered every
level) and never prefetched — it is the demand-faulted, thrashing
working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.access import AccessMode
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError
from repro.gpu.access import IrregularPattern, SequentialPattern, StridedPattern
from repro.harness.pipeline import SplitWorkload
from repro.harness.systems import DiscardPolicy, System
from repro.units import BIG_PAGE, GB, align_up


@dataclass
class BfsConfig:
    """BFS workload parameters (seeded random adjacency structure)."""

    #: Number of graph nodes; frontiers hold one uint32 per node.
    num_nodes: int = 1 << 27
    #: Average out-degree; the edge array holds ``num_nodes * avg_degree``
    #: uint32 neighbor ids.
    avg_degree: int = 8
    #: Traversal depth: one gather kernel per level.
    levels: int = 6
    #: Sustained GPU throughput over the bytes a level touches.
    kernel_throughput: float = 150 * GB
    #: Fault waves per kernel launch.
    waves: int = 8
    #: Base seed of the per-level irregular gather order.
    seed: int = 0xBF5

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.avg_degree < 1:
            raise ConfigurationError("avg_degree must be >= 1")
        if self.levels < 1:
            raise ConfigurationError("levels must be >= 1")

    @property
    def edge_bytes(self) -> int:
        """The adjacency array, rounded up to whole 2 MiB blocks."""
        return align_up(self.num_nodes * self.avg_degree * 4, BIG_PAGE)

    @property
    def frontier_bytes(self) -> int:
        """One frontier buffer (uint32 per node)."""
        return align_up(self.num_nodes * 4, BIG_PAGE)

    @property
    def visited_bytes(self) -> int:
        """The visited bitmap (one byte per node)."""
        return align_up(self.num_nodes, BIG_PAGE)

    @property
    def app_bytes(self) -> int:
        """GPU footprint: edges + two ping-pong frontiers + visited map."""
        return self.edge_bytes + 2 * self.frontier_bytes + self.visited_bytes

    def scaled(self, factor: float) -> "BfsConfig":
        """Shrink the graph for fast runs (pair with ``gpu.scaled``)."""
        return BfsConfig(
            num_nodes=max(BIG_PAGE // 4, int(self.num_nodes * factor)),
            avg_degree=self.avg_degree,
            levels=self.levels,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
            seed=self.seed,
        )


class BfsWorkload(SplitWorkload):
    """Runs the BFS experiment for one evaluated system."""

    def __init__(self, config: Optional[BfsConfig] = None) -> None:
        self.config = config or BfsConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """Allocate the graph and seed the initial frontier on the host.
        CPU-only, so the runtime is quiescent (snapshottable) at the end;
        buffers are handed to :meth:`body_program` via ``cuda.session``."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            edges = cuda.malloc_managed(cfg.edge_bytes, "bfs_edges")
            front_a = cuda.malloc_managed(cfg.frontier_bytes, "bfs_frontier_a")
            front_b = cuda.malloc_managed(cfg.frontier_bytes, "bfs_frontier_b")
            visited = cuda.malloc_managed(cfg.visited_bytes, "bfs_visited")
            yield from cuda.host_write(edges)  # generate the adjacency lists
            yield from cuda.host_write(front_a)  # seed the source frontier
            yield from cuda.host_write(visited)  # clear the visited map
            cuda.session["bfs_edges"] = edges
            cuda.session["bfs_frontier_a"] = front_a
            cuda.session["bfs_frontier_b"] = front_b
            cuda.session["bfs_visited"] = visited

        return setup

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured traversal for ``system``, resuming from a
        completed :meth:`setup_program` (possibly in a forked runtime)."""
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            edges = cuda.session["bfs_edges"]
            frontiers = [
                cuda.session["bfs_frontier_a"],
                cuda.session["bfs_frontier_b"],
            ]
            visited = cuda.session["bfs_visited"]
            cuda.begin_measurement()
            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            cuda.prefetch_async(visited, stream=transfer)
            cuda.prefetch_async(frontiers[0], stream=transfer)
            level_bytes = cfg.edge_bytes + 2 * cfg.frontier_bytes
            for level in range(cfg.levels):
                current = frontiers[level % 2]
                nxt = frontiers[(level + 1) % 2]
                # The next frontier was discarded at level-1; prefetching
                # it back before the kernel writes is the §5.2 pairing
                # that keeps this site lazy under UvmDiscardLazy.
                prefetched = cuda.prefetch_async(nxt, stream=transfer)
                kernel = KernelSpec(
                    f"bfs_level_{level}",
                    [
                        BufferAccess(
                            edges,
                            AccessMode.READ,
                            pattern=IrregularPattern(seed=cfg.seed + level),
                        ),
                        BufferAccess(
                            current, AccessMode.READ, pattern=SequentialPattern()
                        ),
                        BufferAccess(
                            nxt, AccessMode.WRITE, pattern=SequentialPattern()
                        ),
                        BufferAccess(
                            visited,
                            AccessMode.READWRITE,
                            pattern=StridedPattern(),
                        ),
                    ],
                    duration=level_bytes / cfg.kernel_throughput,
                    waves=cfg.waves,
                )
                compute.wait_for(prefetched)
                cuda.launch(kernel, stream=compute)
                # The consumed frontier is dead; level l+1 prefetches it
                # back as its write target, so every discard except the
                # last is prefetch-paired.
                paired = level + 1 < cfg.levels
                mode = policy.mode_for(paired_with_prefetch=paired)
                if mode is not None:
                    cuda.discard_async(current, mode=mode, stream=compute)
            yield from cuda.synchronize()

        return body
