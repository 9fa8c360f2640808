"""Hash-join — the GPU database workload (§7.4, Tables 7 and 8).

"The application first launches two GPU kernels that preprocess two
database tables.  Both kernels use many intermediate buffers that can be
discarded and their outputs become the input of the third GPU kernel
that computes the joined database table of the final results.  The
results then get discarded and such a process is repeated by reusing the
existing buffers, which simulates what happens in a GPU database."

Per round:

1. ``preprocess_r`` — READ table R; WRITE scratch_R (hash tables,
   histograms, partition buffers: the "many intermediate buffers");
   WRITE intermediate I_R; discard scratch_R,
2. ``preprocess_s`` — same for table S,
3. ``join`` — READ I_R and I_S, WRITE the result buffer,
4. discard I_R, I_S and the result (all dead until overwritten next
   round).

Without discard, every intermediate is swapped out under pressure and
swapped back in just to be overwritten — the RMTs behind the paper's
headline "4.17x speedup by eliminating 85.8 % of memory transfers" at
200 % oversubscription.  The result buffer's discard and the
intermediates are prefetch-paired (prefaulted before each overwrite, the
§4.2 best practice) and may go lazy; the scratch buffers are populated
inside their kernels with no pairing prefetch, so their discards stay
eager even in the UvmDiscardLazy system — why lazy "introduces no more
than 4 % overhead ... because in this case not all UvmDiscard calls can
be replaced" (§7.4).
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
from repro.units import GB


@dataclass
class HashJoinConfig:
    """Hash-join parameters, sized to reproduce Tables 7/8."""

    #: Each input table ("<100 %" traffic = both tables once = 2.98 GB).
    table_bytes: int = int(1.49 * GB)
    #: Each preprocessing intermediate handed to the join (partitions).
    intermediate_bytes: int = int(0.6 * GB)
    #: Each preprocessing kernel's scratch (hash tables, histograms) —
    #: dead as soon as its kernel finishes.
    scratch_bytes: int = int(1.6 * GB)
    #: Joined output.
    result_bytes: int = int(3.2 * GB)
    #: Join rounds re-using the same buffers.
    rounds: int = 3
    #: Sustained kernel throughput over touched bytes.
    kernel_throughput: float = 250 * GB
    #: Fault waves per kernel launch.
    waves: int = 12

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")

    @property
    def app_bytes(self) -> int:
        return (
            2 * self.table_bytes
            + 2 * self.intermediate_bytes
            + 2 * self.scratch_bytes
            + self.result_bytes
        )

    def scaled(self, factor: float) -> "HashJoinConfig":
        return HashJoinConfig(
            table_bytes=int(self.table_bytes * factor),
            intermediate_bytes=int(self.intermediate_bytes * factor),
            scratch_bytes=int(self.scratch_bytes * factor),
            result_bytes=int(self.result_bytes * factor),
            rounds=self.rounds,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
        )


class HashJoinWorkload(SplitWorkload):
    """Runs the hash-join experiment for one evaluated system."""

    def __init__(self, config: Optional[HashJoinConfig] = None) -> None:
        self.config = config or HashJoinConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """The system-independent setup prefix: allocate all seven
        buffers and populate the two input tables on the host.  CPU-only,
        so the runtime is quiescent (and snapshottable) afterwards."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            buffers = {
                "table_r": cuda.malloc_managed(cfg.table_bytes, "table_r"),
                "table_s": cuda.malloc_managed(cfg.table_bytes, "table_s"),
                "inter_r": cuda.malloc_managed(cfg.intermediate_bytes, "inter_r"),
                "inter_s": cuda.malloc_managed(cfg.intermediate_bytes, "inter_s"),
                "scratch_r": cuda.malloc_managed(cfg.scratch_bytes, "scratch_r"),
                "scratch_s": cuda.malloc_managed(cfg.scratch_bytes, "scratch_s"),
                "join_result": cuda.malloc_managed(cfg.result_bytes, "join_result"),
            }
            yield from cuda.host_write(buffers["table_r"])
            yield from cuda.host_write(buffers["table_s"])
            cuda.session.update(buffers)

        return setup

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured body for ``system``, resuming from a completed
        :meth:`setup_program` (possibly in a forked runtime)."""
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            table_r = cuda.session["table_r"]
            table_s = cuda.session["table_s"]
            inter_r = cuda.session["inter_r"]
            inter_s = cuda.session["inter_s"]
            scratch_r = cuda.session["scratch_r"]
            scratch_s = cuda.session["scratch_s"]
            result = cuda.session["join_result"]
            cuda.begin_measurement()  # §7.1: exclude input preprocessing
            fits = cuda.driver.gpu_free_bytes(cuda.gpu.name) >= cfg.app_bytes
            preprocess_time = (
                cfg.table_bytes + cfg.scratch_bytes + cfg.intermediate_bytes
            ) / cfg.kernel_throughput
            join_time = (
                2 * cfg.intermediate_bytes + cfg.result_bytes
            ) / cfg.kernel_throughput
            for round_index in range(cfg.rounds):
                if fits:
                    cuda.prefetch_async(table_r)
                    cuda.prefetch_async(inter_r)
                cuda.launch(
                    KernelSpec(
                        f"preprocess_r_{round_index}",
                        [
                            BufferAccess(table_r, AccessMode.READ),
                            BufferAccess(scratch_r, AccessMode.WRITE),
                            BufferAccess(inter_r, AccessMode.WRITE),
                        ],
                        duration=preprocess_time,
                        waves=cfg.waves,
                    )
                )
                scratch_mode = policy.mode_for(paired_with_prefetch=False)
                if scratch_mode is not None:
                    cuda.discard_async(scratch_r, mode=scratch_mode)
                if fits:
                    cuda.prefetch_async(table_s)
                    cuda.prefetch_async(inter_s)
                cuda.launch(
                    KernelSpec(
                        f"preprocess_s_{round_index}",
                        [
                            BufferAccess(table_s, AccessMode.READ),
                            BufferAccess(scratch_s, AccessMode.WRITE),
                            BufferAccess(inter_s, AccessMode.WRITE),
                        ],
                        duration=preprocess_time,
                        waves=cfg.waves,
                    )
                )
                if scratch_mode is not None:
                    cuda.discard_async(scratch_s, mode=scratch_mode)
                if fits:
                    cuda.prefetch_async(result)  # prefault before overwrite
                cuda.launch(
                    KernelSpec(
                        f"join_{round_index}",
                        [
                            BufferAccess(
                                inter_r, AccessMode.READ, pattern=StridedPattern()
                            ),
                            BufferAccess(
                                inter_s, AccessMode.READ, pattern=StridedPattern()
                            ),
                            BufferAccess(
                                result, AccessMode.WRITE, pattern=SequentialPattern()
                            ),
                        ],
                        duration=join_time,
                        waves=cfg.waves,
                    )
                )
                # Intermediates are dead after the join and are prefetched
                # (prefaulted) before being overwritten next round: lazy-
                # eligible.  The result is consumed in place and never
                # prefetched: it must stay eager (§7.4).
                inter_mode = policy.mode_for(paired_with_prefetch=fits)
                result_mode = policy.mode_for(paired_with_prefetch=fits)
                if inter_mode is not None:
                    cuda.discard_async(inter_r, mode=inter_mode)
                    cuda.discard_async(inter_s, mode=inter_mode)
                if result_mode is not None:
                    cuda.discard_async(result, mode=result_mode)
            yield from cuda.synchronize()

        return body
