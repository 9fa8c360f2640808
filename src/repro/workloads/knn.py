"""kNN — batched k-nearest-neighbor search (UVMBench's ML family).

Queries stream through in windows (the FIR shape) while every batch
re-gathers the whole reference set in a data-dependent order (the
random-access shape) — the combination UVMBench's kNN stresses.  Two
discard sites with different pairings:

- the consumed query window is dead forever once its batch finished —
  unpaired, stays eager in every discard system (the §7.2 FIR pattern);
- the per-batch distance scratch is consumed by the selection kernel,
  discarded, and prefetched back for the next batch — the §5.2
  prefetch-paired site that goes lazy under UvmDiscardLazy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.access import AccessMode
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError
from repro.gpu.access import IrregularPattern, SequentialPattern
from repro.harness.pipeline import SplitWorkload
from repro.harness.systems import DiscardPolicy, System
from repro.units import BIG_PAGE, GB, align_up


@dataclass
class KnnConfig:
    """kNN workload parameters."""

    #: Reference points; each is ``dims`` float32 features.
    num_refs: int = 1 << 26
    #: Query points, processed in ``batches`` streaming windows.
    num_queries: int = 1 << 23
    #: Feature dimensions per point.
    dims: int = 8
    #: Number of query windows.
    batches: int = 8
    #: Sustained GPU throughput over the bytes a kernel touches.
    kernel_throughput: float = 180 * GB
    #: Fault waves per kernel launch.
    waves: int = 8
    #: Base seed of the per-batch irregular reference gather.
    seed: int = 0x4E4E

    def __post_init__(self) -> None:
        if self.num_refs < 1:
            raise ConfigurationError("num_refs must be >= 1")
        if self.dims < 1:
            raise ConfigurationError("dims must be >= 1")
        if self.batches < 1:
            raise ConfigurationError("batches must be >= 1")
        if self.num_queries < self.batches:
            raise ConfigurationError("need at least one query per batch")

    @property
    def refs_bytes(self) -> int:
        """The reference set, rounded up to whole 2 MiB blocks."""
        return align_up(self.num_refs * self.dims * 4, BIG_PAGE)

    @property
    def batch_bytes(self) -> int:
        """One query window, rounded up to whole 2 MiB blocks."""
        return align_up(
            (self.num_queries // self.batches) * self.dims * 4, BIG_PAGE
        )

    @property
    def query_bytes(self) -> int:
        """The whole query set (``batches`` windows)."""
        return self.batches * self.batch_bytes

    @property
    def scratch_bytes(self) -> int:
        """Per-batch distance scratch consumed by the selection kernel."""
        return self.batch_bytes

    @property
    def result_bytes(self) -> int:
        """The neighbor-index output (uint32 per query)."""
        return align_up(self.num_queries * 4, BIG_PAGE)

    @property
    def app_bytes(self) -> int:
        """GPU footprint: references + queries + scratch + results."""
        return (
            self.refs_bytes
            + self.query_bytes
            + self.scratch_bytes
            + self.result_bytes
        )

    def scaled(self, factor: float) -> "KnnConfig":
        """Shrink the search for fast runs (pair with ``gpu.scaled``)."""
        return KnnConfig(
            num_refs=max(BIG_PAGE // 4, int(self.num_refs * factor)),
            num_queries=max(
                self.batches * (BIG_PAGE // 32),
                int(self.num_queries * factor),
            ),
            dims=self.dims,
            batches=self.batches,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
            seed=self.seed,
        )


class KnnWorkload(SplitWorkload):
    """Runs the kNN experiment for one evaluated system."""

    def __init__(self, config: Optional[KnnConfig] = None) -> None:
        self.config = config or KnnConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """Allocate the buffers and generate references and queries on
        the host (CPU-only, quiescent at the end)."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            refs = cuda.malloc_managed(cfg.refs_bytes, "knn_refs")
            queries = cuda.malloc_managed(cfg.query_bytes, "knn_queries")
            scratch = cuda.malloc_managed(cfg.scratch_bytes, "knn_scratch")
            result = cuda.malloc_managed(cfg.result_bytes, "knn_result")
            yield from cuda.host_write(refs)  # generate the reference set
            yield from cuda.host_write(queries)  # generate the queries
            cuda.session["knn_refs"] = refs
            cuda.session["knn_queries"] = queries
            cuda.session["knn_scratch"] = scratch
            cuda.session["knn_result"] = result

        return setup

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured batched search for ``system``."""
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            refs = cuda.session["knn_refs"]
            queries = cuda.session["knn_queries"]
            scratch = cuda.session["knn_scratch"]
            result = cuda.session["knn_result"]
            cuda.begin_measurement()
            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            batch = cfg.batch_bytes
            result_window = cfg.result_bytes // cfg.batches
            for b in range(cfg.batches):
                q_rng = queries.subrange(b * batch, batch)
                cuda.prefetch_async(queries, rng=q_rng, stream=transfer)
                # The scratch was discarded after the previous batch's
                # selection; prefetching it back keeps the site lazy
                # under UvmDiscardLazy (§5.2).
                prefetched = cuda.prefetch_async(scratch, stream=transfer)
                distance = KernelSpec(
                    f"knn_distance_{b}",
                    [
                        BufferAccess(
                            refs,
                            AccessMode.READ,
                            pattern=IrregularPattern(seed=cfg.seed + b),
                        ),
                        BufferAccess(
                            queries,
                            AccessMode.READ,
                            q_rng,
                            SequentialPattern(),
                        ),
                        BufferAccess(
                            scratch, AccessMode.WRITE, pattern=SequentialPattern()
                        ),
                    ],
                    duration=(cfg.refs_bytes + batch) / cfg.kernel_throughput,
                    waves=cfg.waves,
                )
                compute.wait_for(prefetched)
                cuda.launch(distance, stream=compute)
                out_rng = result.subrange(
                    b * result_window,
                    result_window if b + 1 < cfg.batches else None,
                )
                select = KernelSpec(
                    f"knn_select_{b}",
                    [
                        BufferAccess(
                            scratch, AccessMode.READ, pattern=SequentialPattern()
                        ),
                        BufferAccess(
                            result, AccessMode.WRITE, out_rng, SequentialPattern()
                        ),
                    ],
                    duration=cfg.scratch_bytes / cfg.kernel_throughput,
                    waves=max(1, cfg.waves // 2),
                )
                cuda.launch(select, stream=compute)
                # The consumed query window is never revisited — an
                # unpaired site that stays eager, like FIR's windows.
                mode = policy.mode_for(paired_with_prefetch=False)
                if mode is not None:
                    cuda.discard_async(queries, rng=q_rng, mode=mode, stream=compute)
                # The distance scratch dies with the selection kernel;
                # the next batch prefetches it back (paired site).
                paired = b + 1 < cfg.batches
                mode = policy.mode_for(paired_with_prefetch=paired)
                if mode is not None:
                    cuda.discard_async(scratch, mode=mode, stream=compute)
            yield from cuda.synchronize()

        return body
