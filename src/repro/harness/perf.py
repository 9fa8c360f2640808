"""Performance benchmarks for the simulation kernel itself.

The rest of ``repro.harness`` measures the *simulated* machine; this
module measures the *simulator* — how many host-side seconds one
simulated experiment costs.  Four benchmarks cover the layers the fast
path touches:

- ``engine_churn`` — pure :mod:`repro.engine` event traffic (timeouts,
  resource handoffs, store put/get) with no driver on top.  Tracks the
  slotted-event / timeout-recycling / synchronous-continuation work.
- ``fault_storm`` — a 2x-oversubscribed :class:`UvmDriver` serviced by
  round-robin fault batches, so every batch migrates and evicts.
  Tracks the coalesced-transfer and lazy-lock driver paths.
- ``macro_vgg16`` — the paper's Figure 5 VGG-16 point (batch 125,
  ``UvmDiscard``) through :func:`repro.harness.sweep.execute_point`,
  cold (no result cache).  The end-to-end number CI trends.
- ``snapshot_fork`` — the snapshot transport in isolation: serialize
  one warm VGG-16 prefix once, then fork it repeatedly via the blob
  (``pickle.loads``).

``python -m repro profile`` runs the suite and writes
``BENCH_engine.json``; ``--check`` compares against a committed
baseline and fails on a regression (see docs/PERFORMANCE.md).

Wall-clock results are machine-dependent; the deterministic companion
metrics (simulated events, traffic bytes) must be bit-identical across
runs and act as a canary for accidental behaviour changes.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, Iterable, List, Optional

#: Bump when the JSON layout of BENCH_engine.json changes.
BENCH_SCHEMA = 1

#: Default regression gate: fail when a benchmark's wall time exceeds
#: ``factor`` times the committed baseline.  Generous because CI runners
#: are noisy; real regressions from lost fast paths are 2-10x.
DEFAULT_MAX_REGRESSION = 2.0


# ----------------------------------------------------------------------
# benchmark bodies — each returns its metrics dict (without wall time)
# ----------------------------------------------------------------------


def _bench_engine_churn() -> Dict[str, float]:
    """Pure engine event churn: timeouts + resource + store traffic."""
    from repro.engine.core import Environment
    from repro.engine.resources import Resource, Store

    env = Environment()
    resource = Resource(env, capacity=4)
    store = Store(env)
    workers = 50
    rounds = 400

    def worker(wid: int):
        for _ in range(rounds):
            yield env.timeout(1e-6)
            request = resource.try_acquire()
            if request is None:
                request = resource.request()
                yield request
            yield env.timeout(1e-7)
            resource.release(request)
            store.put(wid)
            yield store.get()

    for wid in range(workers):
        env.process(worker(wid))
    env.run()
    return {"sim_events": float(env._sequence), "sim_now": env.now}


def _bench_fault_storm() -> Dict[str, float]:
    """Driver fault/evict churn at 2x oversubscription, no workload.

    Runs with a deliberately small event-log ring buffer so the
    ``log_dropped`` companion metric exercises (and pins) the
    overflow-accounting path under load.
    """
    from repro.driver.config import UvmDriverConfig
    from repro.driver.driver import UvmDriver
    from repro.driver.va_block import VaBlock
    from repro.engine.core import Environment
    from repro.interconnect import pcie_gen4
    from repro.units import BIG_PAGE

    env = Environment()
    driver = UvmDriver(
        env,
        pcie_gen4(),
        config=UvmDriverConfig(event_log_enabled=True, event_log_capacity=200),
    )
    gpu_blocks = 64
    total_blocks = gpu_blocks * 2
    driver.register_gpu("gpu0", gpu_blocks * BIG_PAGE)
    blocks = [VaBlock(i, BIG_PAGE) for i in range(total_blocks)]
    driver.register_blocks(blocks)
    batch = 16
    sweeps = 6

    def storm():
        for sweep in range(sweeps):
            for start in range(0, total_blocks, batch):
                yield from driver.handle_gpu_faults(
                    "gpu0", blocks[start : start + batch]
                )

    env.process(storm())
    env.run()
    driver.finalize()
    return {
        "sim_events": float(env._sequence),
        "traffic_bytes": float(driver.traffic.total_bytes),
        "fault_batches": float(
            driver.counters[driver.counters.GPU_FAULT_BATCHES]
        ),
        "log_dropped": float(driver.log.dropped),
    }


def _bench_macro_vgg16() -> Dict[str, float]:
    """Figure 5 VGG-16 point (batch 125, UvmDiscard), cold cache."""
    from repro.harness.sweep import SweepPoint, execute_point

    point = SweepPoint(
        workload="dl:vgg16",
        system="UvmDiscard",
        batch_size=125,
        scale=0.125,
    )
    result = execute_point(point)
    assert result is not None
    return {
        "traffic_gb": result.traffic_gb,
        "sim_elapsed_seconds": result.elapsed_seconds,
    }


def _bench_snapshot_fork() -> Dict[str, float]:
    """The snapshot transport in isolation: repeated blob forks.

    Builds one warm VGG-16 setup prefix, serializes it exactly once
    (:class:`~repro.engine.snapshot.EngineSnapshot`), then forks it
    repeatedly.  ``wall_seconds`` — the gated metric — is the fork
    loop; ``serialize_wall_seconds`` (paid once per prefix) and
    ``prefix_build_wall_seconds`` (the simulation cost a shared blob
    amortizes away per worker) size the build amortization.  One last
    fork runs the measured body through the pipeline, so the timed
    forks are known to be usable.
    """
    from repro.engine.snapshot import EngineSnapshot
    from repro.harness.pipeline import build_prefix, plan_for, simulate
    from repro.harness.sweep import SweepPoint

    point = SweepPoint(
        workload="dl:vgg16",
        system="UvmDiscard",
        batch_size=8,
        scale=0.03125,
        batches=12,
    )
    plan = plan_for(point)
    start = time.perf_counter()
    runtime = build_prefix(plan)
    prefix_wall = time.perf_counter() - start
    start = time.perf_counter()
    snapshot = EngineSnapshot(runtime)
    serialize_wall = time.perf_counter() - start
    forks = 40
    start = time.perf_counter()
    for _ in range(forks):
        snapshot.fork()
    blob_wall = time.perf_counter() - start
    result, _ = simulate(plan, snapshot)
    assert result is not None
    return {
        # Overrides the harness's whole-body timing: the gated wall
        # time is the fork loop, not the build or the check.
        "wall_seconds": blob_wall,
        "serialize_wall_seconds": serialize_wall,
        "prefix_build_wall_seconds": prefix_wall,
        "blob_bytes": float(snapshot.payload_nbytes()),
        "forks": float(forks),
    }


BENCHMARKS: Dict[str, Callable[[], Dict[str, float]]] = {
    "engine_churn": _bench_engine_churn,
    "fault_storm": _bench_fault_storm,
    "macro_vgg16": _bench_macro_vgg16,
    "snapshot_fork": _bench_snapshot_fork,
}

#: Metrics that legitimately differ run-to-run (host wall clock and its
#: derivatives, plus pickle sizes — container hash order can perturb
#: the blob byte-for-byte).  Everything else in a benchmark entry is
#: deterministic simulation output and must be bit-identical across
#: runs/machines.
NONDETERMINISTIC_KEYS = (
    "wall_seconds",
    "serialize_wall_seconds",
    "prefix_build_wall_seconds",
    "blob_bytes",
)


# ----------------------------------------------------------------------
# runner + JSON + regression gate
# ----------------------------------------------------------------------


def run_benchmarks(
    names: Optional[Iterable[str]] = None,
    repeat: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, float]]:
    """Run the selected benchmarks; wall time is best-of-``repeat``.

    Returns ``{name: {"wall_seconds": ..., <metrics>...}}``.  The
    deterministic metrics come from the fastest repeat (they are
    identical across repeats by construction).  A body that times
    sub-phases itself (``snapshot_fork``) may return its own
    ``wall_seconds``, which overrides the harness's whole-body timing.
    """
    selected = list(names) if names is not None else list(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {unknown}; have {sorted(BENCHMARKS)}"
        )
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1: {repeat}")
    results: Dict[str, Dict[str, float]] = {}
    for name in selected:
        body = BENCHMARKS[name]
        best_wall: Optional[float] = None
        metrics: Dict[str, float] = {}
        for _ in range(repeat):
            start = time.perf_counter()
            run_metrics = body()
            wall = time.perf_counter() - start
            if best_wall is None or wall < best_wall:
                best_wall = wall
                metrics = run_metrics
        entry = {"wall_seconds": best_wall}
        entry.update(metrics)
        results[name] = entry
        if progress is not None:
            note = ""
            if metrics.get("log_dropped"):
                note = f", log_dropped={metrics['log_dropped']:.0f}"
            progress(f"{name}: {best_wall:.4f} s (best of {repeat}{note})")
    return results


def results_to_json(
    results: Dict[str, Dict[str, float]],
    repeat: int,
    reference: Optional[Dict[str, float]] = None,
) -> str:
    """Render results as the BENCH_engine.json payload."""
    payload = {
        "schema": BENCH_SCHEMA,
        "suite": "repro-simulation-kernel",
        "repeat": repeat,
        "python": platform.python_version(),
        "benchmarks": results,
    }
    if reference:
        payload["reference"] = reference
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_bench_json(text: str) -> Dict[str, Dict[str, float]]:
    """Extract the per-benchmark results from a BENCH_engine.json blob."""
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported bench schema {schema!r} (want {BENCH_SCHEMA})"
        )
    return payload["benchmarks"]


def check_regressions(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    factor: float = DEFAULT_MAX_REGRESSION,
) -> List[str]:
    """Compare wall times against a baseline; return failure messages.

    A benchmark fails when its wall time exceeds ``factor`` times the
    baseline's.  Benchmarks present on only one side are skipped — the
    gate tracks regressions, not suite membership.
    """
    failures: List[str] = []
    for name, entry in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            continue
        wall = entry["wall_seconds"]
        limit = base["wall_seconds"] * factor
        if wall > limit:
            failures.append(
                f"{name}: {wall:.4f} s exceeds {factor:g}x baseline "
                f"({base['wall_seconds']:.4f} s -> limit {limit:.4f} s)"
            )
    return failures


def compare_results(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
) -> str:
    """Render per-benchmark wall-time deltas against a baseline.

    One line per benchmark: baseline and current wall seconds, the
    absolute delta, the percent change (negative = faster) and the
    speedup factor.  Benchmarks present on only one side are listed as
    such.  Informational only — gating lives in
    :func:`check_regressions`.
    """
    names = sorted(set(current) | set(baseline))
    width = max((len(n) for n in names), default=4)
    lines = [
        f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}"
        f"  {'delta':>10}  {'change':>8}  {'speedup':>7}"
    ]
    for name in names:
        entry, base = current.get(name), baseline.get(name)
        if entry is None or base is None:
            side = "baseline" if entry is None else "current"
            lines.append(f"{name:<{width}}  (only in {side})")
            continue
        wall, ref = entry["wall_seconds"], base["wall_seconds"]
        delta = wall - ref
        percent = (delta / ref * 100.0) if ref else float("inf")
        speedup = (ref / wall) if wall else float("inf")
        lines.append(
            f"{name:<{width}}  {ref:>9.4f}s  {wall:>9.4f}s"
            f"  {delta:>+9.4f}s  {percent:>+7.1f}%  {speedup:>6.2f}x"
        )
    return "\n".join(lines)
