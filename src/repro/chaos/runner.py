"""The differential chaos oracle.

Runs each functional workload three times — once fault-free, twice under
the same chaos seed — with the online validator installed, and asserts
the three properties the chaos subsystem guarantees:

1. **Invariants hold**: every scheduled mid-simulation check passes
   (zero violations under any injected schedule).
2. **Functional equivalence**: the workload's output bytes are identical
   with and without injected faults — retries, aborts, evictions and
   remappings never change program-visible data.
3. **Determinism**: the two chaos runs of the same seed produce the same
   event trace: equal :func:`trace_digest` and equal tracer digests.
   Every run records through a :class:`~repro.instrument.trace.Tracer`,
   so the verdict always checks that one record stream.

``python -m repro chaos`` drives this suite from the CLI.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.catalog import CHAOS_WORKLOADS
from repro.chaos.injector import ChaosInjector
from repro.chaos.schedule import ChaosConfig
from repro.chaos.validator import OnlineValidator
from repro.chaos.workloads import functional_fir, functional_mlp
from repro.cuda.device import GpuSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.instrument.trace import TraceConfig, Tracer
from repro.units import GB, MIB
from repro.workloads.functional import (
    functional_bfs,
    functional_hash_join,
    functional_kmeans,
    functional_knn,
    functional_radix_sort,
    functional_reduction,
    functional_stencil,
)


def trace_digest(runtime: CudaRuntime) -> str:
    """A sha256 fingerprint of one run's complete observable trace.

    Covers the simulated clock, the processed-event count, every counter,
    the traffic totals (per direction and per reason), the RMT tallies
    and every retained transfer record.  Two runs with equal digests
    took the same schedule.
    """
    h = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    put("now", runtime.env.now, "events", runtime.env.event_count)
    put("counters", sorted(runtime.driver.counters.as_dict().items()))
    traffic = runtime.driver.traffic
    put(
        "traffic",
        traffic.bytes_h2d,
        traffic.bytes_d2h,
        traffic.bytes_d2d,
        traffic.transfer_count,
        traffic.block_bytes,
        sorted(traffic._by_reason.items()),
    )
    rmt = runtime.driver.rmt
    put("rmt", rmt.useful_bytes, rmt.redundant_bytes, rmt.pending_bytes)
    for record in traffic.records:
        put(
            record.time,
            record.direction.value,
            record.nbytes,
            record.reason.value,
            record.first_block,
            record.num_blocks,
        )
    return h.hexdigest()


def _chaos_gpu(memory_mib: int) -> GpuSpec:
    return GpuSpec(
        name="gpu0",
        memory_bytes=memory_mib * MIB,
        effective_flops=1e12,
        local_bandwidth=500 * GB,
        zero_bandwidth=500 * GB,
        model=f"chaos-gpu-{memory_mib}MiB",
    )


def _make_runtime(memory_mib: int) -> CudaRuntime:
    config = UvmDriverConfig(keep_transfer_records=True)
    return CudaRuntime(gpu=_chaos_gpu(memory_mib), driver_config=config)


def _build_program(
    name: str, seed: int
) -> Tuple[Callable, Dict[str, bytes], int]:
    """Workload program factory: (program, output-capture dict, GPU MiB).

    Input data is drawn from a ``(seed, workload)``-keyed NumPy generator
    so the fault-free and chaos runs of one seed see identical inputs.
    """
    index = CHAOS_WORKLOADS.index(name)
    rng = np.random.default_rng([seed, index])
    out: Dict[str, bytes] = {}
    if name == "fir":
        # 16 MiB signal + delay line + output on a 24 MiB GPU: the
        # delay-line build and tap reduction stream through eviction.
        signal = rng.standard_normal(1 << 21)
        taps = rng.standard_normal(31)

        def program(cuda: CudaRuntime):
            result = yield from functional_fir(cuda, signal, taps)
            out["bytes"] = result.tobytes()

        return program, out, 24
    if name == "radix":
        # Two 16 MiB ping-pong buffers on a 24 MiB GPU (§7.3's shape).
        keys = rng.integers(0, 1 << 32, size=1 << 22, dtype=np.uint32)

        def program(cuda: CudaRuntime):
            result = yield from functional_radix_sort(cuda, keys)
            out["bytes"] = result.tobytes()

        return program, out, 24
    if name == "hashjoin":
        # ~20 MiB of tables + scratch on a 12 MiB GPU.
        n = 1 << 19
        left_keys = rng.permutation(np.arange(2 * n, dtype=np.int64))[:n]
        left_vals = rng.integers(0, 1 << 30, size=n, dtype=np.int64)
        right_keys = rng.integers(0, 2 * n, size=n, dtype=np.int64)
        right_vals = rng.integers(0, 1 << 30, size=n, dtype=np.int64)

        def program(cuda: CudaRuntime):
            result = yield from functional_hash_join(
                cuda, left_keys, left_vals, right_keys, right_vals
            )
            out["bytes"] = b"".join(a.tobytes() for a in result)

        return program, out, 12
    if name == "mlp":
        # ~32 MiB of weights + activations on a 20 MiB GPU.
        x = rng.standard_normal((1024, 1024))
        w1 = rng.standard_normal((1024, 1024)) / 32.0
        w2 = rng.standard_normal((1024, 512)) / 32.0

        def program(cuda: CudaRuntime):
            result = yield from functional_mlp(cuda, x, w1, w2, iterations=3)
            out["bytes"] = result.tobytes()

        return program, out, 20
    if name == "bfs":
        # ~11.5 MiB of CSR graph + frontiers on an 8 MiB GPU; the
        # per-level frontier ping-pong churns through eviction.
        num_nodes, degree = 1 << 17, 8
        indptr = np.arange(0, num_nodes * degree + 1, degree, dtype=np.int64)
        indices = rng.integers(0, num_nodes, size=num_nodes * degree).astype(
            np.int64
        )

        def program(cuda: CudaRuntime):
            result = yield from functional_bfs(cuda, indptr, indices, source=0)
            out["bytes"] = result.tobytes()

        return program, out, 8
    if name == "kmeans":
        # 8 MiB of points + assignments + scratch on an 8 MiB GPU.
        points = rng.standard_normal((1 << 18, 4))
        centroids = points[:8].copy()

        def program(cuda: CudaRuntime):
            cent, assign = yield from functional_kmeans(
                cuda, points, centroids, iterations=3
            )
            out["bytes"] = cent.tobytes() + assign.tobytes()

        return program, out, 8
    if name == "knn":
        # A 16 MiB distance scratch dominates a 10 MiB GPU; each batch
        # rebuilds and discards it.
        refs = rng.standard_normal((4096, 4))
        queries = rng.standard_normal((2048, 4))

        def program(cuda: CudaRuntime):
            result = yield from functional_knn(
                cuda, refs, queries, k=8, batches=4
            )
            out["bytes"] = result.tobytes()

        return program, out, 10
    if name == "stencil":
        # Two 8 MiB ping-pong grids on a 10 MiB GPU.
        grid = rng.standard_normal((1024, 1024))

        def program(cuda: CudaRuntime):
            result = yield from functional_stencil(cuda, grid, iterations=3)
            out["bytes"] = result.tobytes()

        return program, out, 10
    if name == "reduction":
        # 16 MiB of values + 2 MiB scratch on a 12 MiB GPU.
        values = rng.standard_normal(1 << 21)

        def program(cuda: CudaRuntime):
            result = yield from functional_reduction(cuda, values, fanin=8)
            out["bytes"] = result.tobytes()

        return program, out, 12
    raise ValueError(
        f"unknown chaos workload {name!r}; expected one of {CHAOS_WORKLOADS}"
    )


@dataclass
class ChaosWorkloadResult:
    """Per-workload verdict of the differential oracle."""

    workload: str
    outputs_match: bool
    trace_reproducible: bool
    violations: int
    checks: int
    injected_actions: int
    fault_free_digest: str
    chaos_digest: str
    chaos_repeat_digest: str
    fault_free_seconds: float
    chaos_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    #: Tracer digests of the two chaos runs; their equality is part of
    #: ``trace_reproducible``.
    chaos_trace_digest: str = ""
    repeat_trace_digest: str = ""
    #: The first chaos run's tracer, kept only when the caller passed a
    #: ``trace_config`` (the ``--trace`` export).
    chaos_tracer: Optional[Tracer] = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return (
            self.outputs_match
            and self.trace_reproducible
            and self.violations == 0
        )


@dataclass
class ChaosRunReport:
    """Suite-level result of one ``run_chaos_suite`` invocation."""

    seed: int
    cadence: int
    results: List[ChaosWorkloadResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def summary_lines(self) -> List[str]:
        lines = [
            f"chaos suite: seed={self.seed} cadence={self.cadence} "
            f"{'PASS' if self.ok else 'FAIL'}",
            f"{'workload':<10} {'output':<8} {'trace':<8} "
            f"{'violations':<11} {'checks':<7} injections",
        ]
        for r in self.results:
            lines.append(
                f"{r.workload:<10} "
                f"{'match' if r.outputs_match else 'DIFFER':<8} "
                f"{'stable' if r.trace_reproducible else 'DRIFT':<8} "
                f"{r.violations:<11} {r.checks:<7} {r.injected_actions}"
            )
        return lines


def _run_once(
    name: str,
    seed: int,
    memory_mib: int,
    chaos: Optional[ChaosConfig],
    cadence: int,
    strict: bool,
    trace_config: Optional[TraceConfig] = None,
) -> Tuple[bytes, str, float, OnlineValidator, int, Dict[str, int], Tracer]:
    program, out, _default_mib = _build_program(name, seed)
    runtime = _make_runtime(memory_mib)
    tracer = Tracer(trace_config or TraceConfig(metrics_cadence=0))
    tracer.install(runtime)
    validator = OnlineValidator(
        runtime.driver, cadence=cadence, strict=strict
    ).install(runtime.env)
    injector: Optional[ChaosInjector] = None
    if chaos is not None:
        injector = ChaosInjector(chaos).install(runtime)
    try:
        elapsed = runtime.run(program)
        if injector is not None:
            # Quiesce first: uninstall drains any injected process (spike
            # reservation, ECC retirement) still mid-eviction, so the
            # closing check below sees a settled driver.
            injector.uninstall()
        # One final quiescent check closes the run: at this point the
        # strict (no-slack) contract applies again.
        validator.check_now(allow_inflight=False)
    finally:
        validator.uninstall()
        if injector is not None:
            injector.uninstall()
        tracer.uninstall()
    digest = trace_digest(runtime)
    actions = len(injector.actions) if injector is not None else 0
    counters = {
        name: count
        for name, count in runtime.driver.counters.items()
        if name.startswith(("transfer_", "ecc_", "fault_"))
        or name in ("kernel_aborts", "link_degradations", "pressure_spikes",
                    "invariant_checks")
    }
    return out["bytes"], digest, elapsed, validator, actions, counters, tracer


def run_chaos_suite(
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    cadence: int = 32,
    config: Optional[ChaosConfig] = None,
    strict: bool = False,
    memory_mib: Optional[int] = None,
    trace_config: Optional[TraceConfig] = None,
) -> ChaosRunReport:
    """Run the differential chaos oracle over ``workloads``.

    ``strict=False`` (default) records violations instead of aborting the
    simulation mid-flight, so one report covers every workload; tests use
    ``strict=True`` to fail fast.

    Every run records through a tracer; ``trace_config`` replaces its
    default (no metrics sampling) settings and keeps each workload's
    first chaos tracer on the result for export.
    """
    chaos = config or ChaosConfig.default_storm(seed=seed)
    chaos.validate()
    report = ChaosRunReport(seed=seed, cadence=cadence)
    for name in workloads or CHAOS_WORKLOADS:
        _program, _out, default_mib = _build_program(name, seed)
        mib = memory_mib if memory_mib is not None else default_mib
        free_bytes, free_digest, free_elapsed, _v, _a, _c, _t = _run_once(
            name, seed, mib, None, cadence, strict
        )
        (
            chaos_bytes, chaos_digest, chaos_elapsed,
            validator, actions, counters, chaos_tracer,
        ) = _run_once(
            name, seed, mib, chaos, cadence, strict, trace_config
        )
        _repeat_bytes, repeat_digest, _e, _v2, _a2, _c2, repeat_tracer = (
            _run_once(name, seed, mib, chaos, cadence, strict, trace_config)
        )
        chaos_td = chaos_tracer.digest()
        repeat_td = repeat_tracer.digest()
        report.results.append(
            ChaosWorkloadResult(
                workload=name,
                outputs_match=free_bytes == chaos_bytes,
                trace_reproducible=(
                    chaos_digest == repeat_digest and chaos_td == repeat_td
                ),
                violations=len(validator.violations),
                checks=validator.checks,
                injected_actions=actions,
                fault_free_digest=free_digest,
                chaos_digest=chaos_digest,
                chaos_repeat_digest=repeat_digest,
                fault_free_seconds=free_elapsed,
                chaos_seconds=chaos_elapsed,
                counters=counters,
                chaos_trace_digest=chaos_td,
                repeat_trace_digest=repeat_td,
                chaos_tracer=chaos_tracer if trace_config is not None else None,
            )
        )
    return report
