"""The one simulation pipeline behind every exact experiment point.

Every exact experiment point — a sweep point, a served request, a
``repro trace``/``explain`` run, an access-trace replay, a paper-table
cell — is simulated by :func:`simulate`, which runs one :class:`Plan`
through a single protocol:

0. open a collector epoch (below) that spans steps 1–4;
1. start from the setup prefix: simulated cold by :func:`build_prefix`,
   or forked from an :class:`~repro.engine.snapshot.EngineSnapshot` of
   one, with the plan's driver config re-applied
   (:meth:`~repro.driver.driver.UvmDriver.reconfigure`);
2. install the tracer and record the experiment context, then install
   the chaos injector;
3. run the measured body, then record the migration totals;
4. uninstall in reverse order.

Instruments attach only after the prefix, so every point sharing a
:func:`~repro.harness.sweep.prefix_key` shares a byte-identical prefix,
and a forked run equals a cold one bit for bit.  Each workload builds
its plan in one place — :meth:`SplitWorkload.plan` for the micro
workloads, :meth:`~repro.workloads.dl.trainer.Trainer.plan` for the
trainers — and :func:`~repro.harness.runner.run_uvm_experiment` runs one
cold.  :func:`plan_for` turns a :class:`~repro.harness.sweep.SweepPoint`
into the same plan; the replay frontend builds its plan from a trace's
metadata with the same GPU and link tables.

The collector epoch: each :func:`simulate` call collects the young
generations once on entry, which frees the previous run's object graph,
and then suspends the cyclic garbage collector until it returns.
Finished processes and released requests hold no reference to
themselves, so reference counting frees the per-op objects as the run
goes; what stays cyclic (blocks and their buffers, the event pools, a
resource and its spare requests) does not grow with the run's length.
The epoch cannot reach simulated state: nothing under ``repro`` defines
a finalizer or holds a weak reference, so when a cycle is freed changes
no simulated byte.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cuda.device import GpuSpec, a100_40gb, gtx_1070, rtx_3080ti
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.harness.results import ExperimentResult
from repro.harness.runner import ratio_label, run_uvm_body, run_uvm_prefix
from repro.harness.systems import System
from repro.interconnect import Link, pcie_gen3, pcie_gen4

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.snapshot import EngineSnapshot
    from repro.instrument.trace import Tracer

#: GPU presets by point name; each point scales its own copy.
GPU_FACTORIES: Dict[str, Callable[[], GpuSpec]] = {
    "rtx3080ti": rtx_3080ti,
    "gtx1070": gtx_1070,
    "a100": a100_40gb,
}

#: Host-to-GPU links by point name.
LINK_FACTORIES: Dict[str, Callable[[], Link]] = {
    "gen3": pcie_gen3,
    "gen4": pcie_gen4,
}

#: Makes reading and switching the process-wide collector state one
#: step, so concurrent :func:`simulate` calls (the thread executor of
#: ``repro serve``) leave the collector as the first of them found it.
_COLLECTOR_LOCK = threading.Lock()


@dataclass
class Plan:
    """One exact point, decomposed into the split-phase protocol."""

    #: Host program of the CPU-only setup prefix (quiescent afterwards).
    setup: Callable
    #: Host program of the measured body.
    body: Callable
    system: str
    config_label: str
    app_bytes: int
    #: Oversubscription ratio; the occupant is reserved after the prefix.
    ratio: float
    gpu: GpuSpec
    #: Builds the host link.  A link carries live state (armed faults,
    #: degradation), so each cold prefix gets a fresh one.
    make_link: Callable[[], Link]
    driver_config: Optional[UvmDriverConfig] = None
    #: Result metric computed from the finished runtime (DL images/s).
    metric: Optional[Callable[[CudaRuntime], float]] = None
    #: Chaos overrides (:class:`~repro.chaos.ChaosConfig` items); the
    #: injector perturbs the body only, never the shared prefix.
    chaos: Tuple[Tuple[str, object], ...] = ()
    #: Experiment metadata heading a trace's ``program`` channel.
    context: Dict[str, object] = field(default_factory=dict)


class SplitWorkload:
    """Base of the split-phase micro workloads (§7.2–7.4 and the
    UVMBench categories).

    A subclass defines ``setup_program()`` — the system-independent,
    CPU-only setup prefix — and ``body_program(system)`` — the measured
    body — and sizes the §7.1 occupant with ``config.app_bytes``.
    :meth:`plan` composes them into the one :class:`Plan` that sweeps,
    paper tables and tests all run.
    """

    def plan(
        self,
        system: System,
        ratio: float,
        gpu: GpuSpec,
        make_link: Callable[[], Link],
    ) -> Plan:
        """One Table 3–8 cell: ``system`` at oversubscription ``ratio``.

        ``make_link`` is a link factory (``pcie_gen4``, not
        ``pcie_gen4()``), so every cold prefix builds a fresh link.
        """
        return Plan(
            setup=self.setup_program(),
            body=self.body_program(system),
            system=system.value,
            config_label=ratio_label(ratio),
            app_bytes=self.config.app_bytes,
            ratio=ratio,
            gpu=gpu,
            make_link=make_link,
        )


def _driver_config(point) -> Optional[UvmDriverConfig]:
    if not point.driver:
        return None
    try:
        return UvmDriverConfig(**dict(point.driver))
    except TypeError as exc:
        raise ConfigurationError(f"bad driver override: {exc}") from None


def _dl_trainer(point, system: System):
    from repro.workloads.dl import DarknetTrainer, TrainerConfig
    from repro.workloads.dl import darknet19, resnet53, rnn_shakespeare, vgg16

    factory = {
        "vgg16": vgg16, "darknet19": darknet19,
        "resnet53": resnet53, "rnn": rnn_shakespeare,
    }[point.workload.split(":", 1)[1]]
    if point.batches is None:
        trainer_config = TrainerConfig(batch_size=point.batch_size)
    else:
        trainer_config = TrainerConfig(
            batch_size=point.batch_size, batches=point.batches
        )
    return DarknetTrainer(factory().scaled(point.scale), trainer_config, system)


def _micro_workload(point):
    from repro.workloads.bfs import BfsConfig, BfsWorkload
    from repro.workloads.fir import FirConfig, FirWorkload
    from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload
    from repro.workloads.kmeans import KMeansConfig, KMeansWorkload
    from repro.workloads.knn import KnnConfig, KnnWorkload
    from repro.workloads.radix_sort import RadixSortConfig, RadixSortWorkload
    from repro.workloads.reduction import ReductionConfig, ReductionWorkload
    from repro.workloads.stencil import StencilConfig, StencilWorkload

    workload_cls, config_cls = {
        "fir": (FirWorkload, FirConfig),
        "radix": (RadixSortWorkload, RadixSortConfig),
        "hashjoin": (HashJoinWorkload, HashJoinConfig),
        "bfs": (BfsWorkload, BfsConfig),
        "kmeans": (KMeansWorkload, KMeansConfig),
        "knn": (KnnWorkload, KnnConfig),
        "stencil": (StencilWorkload, StencilConfig),
        "reduction": (ReductionWorkload, ReductionConfig),
    }[point.workload]
    return workload_cls(config_cls().scaled(point.scale))


def plan_for(point) -> Plan:
    """The :class:`Plan` of an exact sweep point (any system): the
    workload's own plan plus the point's driver, chaos and trace
    context."""
    system = System(point.system)
    gpu = GPU_FACTORIES[point.gpu]().scaled(point.scale)
    make_link = LINK_FACTORIES[point.link]
    if point.is_dl:
        plan = _dl_trainer(point, system).plan(gpu, make_link)
    else:
        plan = _micro_workload(point).plan(system, point.ratio, gpu, make_link)
    plan.driver_config = _driver_config(point)
    plan.chaos = point.chaos
    plan.context = {
        "workload": point.workload,
        "system": plan.system,
        "config": plan.config_label,
        "link": point.link,
        "gpu": point.gpu,
        "scale": point.scale,
        "ratio": plan.ratio,
        "batch_size": point.batch_size,
        "app_bytes": plan.app_bytes,
    }
    return plan


def build_prefix(plan: Plan) -> CudaRuntime:
    """Simulate ``plan``'s setup prefix cold; the returned runtime is
    quiescent and snapshottable.  Raises
    :class:`~repro.errors.OutOfMemoryError` when the prefix does not fit."""
    return run_uvm_prefix(
        plan.setup, plan.gpu, plan.make_link(), plan.driver_config
    )


def _populated_spans(buffer) -> List[List[int]]:
    """``[offset, length]`` spans of ``buffer`` holding live program data.

    Adjacent populated blocks merge into one span; offsets are relative
    to the buffer start.  This is what the replay frontend re-creates
    with ``host_write`` before re-enqueuing the measured body's ops.
    """
    spans: List[List[int]] = []
    base = buffer.va_range.start
    for block in buffer.blocks:
        if not block.populated:
            continue
        offset = block.va_start - base
        if spans and spans[-1][0] + spans[-1][1] == offset:
            spans[-1][1] += block.used_bytes
        else:
            spans.append([offset, block.used_bytes])
    return spans


def _record_context(tracer: "Tracer", runtime: CudaRuntime, plan: Plan) -> None:
    """Emit the replay header: experiment metadata + the buffer table.

    Recorded immediately after install, so these are the first records
    of the program channel in both the cold and the forked timeline.
    """
    if not tracer.enabled:
        return
    now = runtime.env.now
    tracer.instant(
        "program", "experiment", now, category="program", args=plan.context
    )
    for buffer in runtime.managed_buffers():
        tracer.instant(
            "program",
            "buffer",
            now,
            category="program",
            args={
                "buffer": buffer.name,
                "nbytes": buffer.nbytes,
                "spans": _populated_spans(buffer),
            },
        )


def _record_totals(tracer: "Tracer", runtime: CudaRuntime) -> None:
    """Emit the measured body's migration totals (the replay check)."""
    if not tracer.enabled:
        return
    traffic = runtime.driver.traffic
    tracer.instant(
        "program",
        "totals",
        runtime.env.now,
        category="program",
        args={
            "bytes_h2d": traffic.bytes_h2d,
            "bytes_d2h": traffic.bytes_d2h,
            "transfer_count": traffic.transfer_count,
        },
    )


def _install_chaos(runtime: CudaRuntime, items):
    """Build and install the chaos injector; ``None`` when chaos-free."""
    if not items:
        return None
    from repro.chaos.injector import ChaosInjector
    from repro.chaos.schedule import ChaosConfig

    return ChaosInjector(ChaosConfig.from_items(items)).install(runtime)


def simulate(
    plan: Plan,
    snapshot: Optional["EngineSnapshot"] = None,
    tracer: Optional["Tracer"] = None,
) -> Tuple[Optional[ExperimentResult], Optional[CudaRuntime]]:
    """Run ``plan`` through the pipeline; returns ``(result, runtime)``.

    ``snapshot`` (a snapshot of this plan's prefix, or of any prefix
    with the same :func:`~repro.harness.sweep.prefix_key`) replaces the
    cold prefix with a fork.  ``result`` is ``None`` on OOM (the
    paper's No-UVM crash); ``runtime`` is ``None`` when the prefix
    itself ran out of memory.

    The call is one collector epoch (step 0 of the module's protocol):
    it collects the young generations on entry, runs the prefix or
    fork, the body and the result assembly with the cyclic collector
    suspended, and re-enables the collector on the way out only if it
    was enabled on entry, so a nested call or a caller that disabled it
    keeps its own setting.
    """
    gc.collect(1)
    with _COLLECTOR_LOCK:
        collector_enabled = gc.isenabled()
        gc.disable()
    try:
        if snapshot is None:
            try:
                runtime = build_prefix(plan)
            except OutOfMemoryError:
                return None, None
        else:
            runtime = snapshot.fork()
            runtime.driver.reconfigure(plan.driver_config or UvmDriverConfig())
        if tracer is not None:
            tracer.install(runtime)
            _record_context(tracer, runtime, plan)
        injector = _install_chaos(runtime, plan.chaos)
        try:
            result = run_uvm_body(
                runtime,
                plan.body,
                plan.system,
                plan.config_label,
                plan.app_bytes,
                plan.ratio,
                metric=plan.metric,
            )
            if tracer is not None:
                _record_totals(tracer, runtime)
        except OutOfMemoryError:
            result = None
        finally:
            if injector is not None:
                injector.uninstall()
            if tracer is not None:
                tracer.uninstall()
        return result, runtime
    finally:
        if collector_enabled:
            with _COLLECTOR_LOCK:
                gc.enable()
