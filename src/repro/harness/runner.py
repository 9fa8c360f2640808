"""One-call experiment runner shared by benchmarks and tests.

:func:`run_uvm_experiment` is the cold run of one
:class:`~repro.harness.pipeline.Plan`: it goes through
:func:`~repro.harness.pipeline.simulate` like every sweep point, so a
paper table and a sweep of the same cells run exactly the same code.
:func:`run_uvm_prefix` and :func:`run_uvm_body` are the two halves every
pipeline run executes.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from typing import TYPE_CHECKING, Callable, Optional

from repro.cuda.device import GpuSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.errors import OutOfMemoryError
from repro.harness.oversubscribe import apply_oversubscription
from repro.harness.results import ExperimentResult
from repro.interconnect.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.pipeline import Plan


def run_uvm_experiment(plan: "Plan") -> ExperimentResult:
    """Run ``plan`` cold under the §7.1 methodology.

    Raises :class:`~repro.errors.OutOfMemoryError` (see
    :func:`out_of_memory`) when the plan does not fit — the paper's
    No-UVM crash.
    """
    from repro.harness.pipeline import simulate

    result, _runtime = simulate(plan)
    if result is None:
        raise out_of_memory(plan)
    return result


def out_of_memory(plan: "Plan") -> OutOfMemoryError:
    """The error a cold run of ``plan`` raises when it does not fit."""
    return OutOfMemoryError(
        f"{plan.system}/{plan.config_label}: {plan.app_bytes} bytes at "
        f"oversubscription ratio {plan.ratio:g} do not fit in the "
        f"{plan.gpu.memory_bytes}-byte {plan.gpu.name}"
    )


def run_uvm_prefix(
    setup_program: Callable,
    gpu: GpuSpec,
    link: Link,
    driver_config: Optional[UvmDriverConfig] = None,
) -> CudaRuntime:
    """Simulate a workload's setup prefix and return the live runtime.

    Unlike :meth:`CudaRuntime.run` this does **not** finalize the driver
    — the RMT classifier must resolve its pending chains exactly once,
    at the end of the measured body.  The returned runtime is quiescent
    (the prefix is CPU-only by construction) and therefore snapshottable
    with :class:`~repro.engine.snapshot.EngineSnapshot`.
    """
    runtime = CudaRuntime(gpu=gpu, link=link, driver_config=driver_config)
    env = runtime.env
    process = env.process(setup_program(runtime))
    env.run(until=process)
    env.run()  # drain any stragglers to quiescence
    return runtime


def run_uvm_body(
    runtime: CudaRuntime,
    body_program: Callable,
    system: str,
    config_label: str,
    app_bytes: int,
    ratio: float,
    metric: Optional[Callable[[CudaRuntime], float]] = None,
) -> ExperimentResult:
    """Run the measured body on a runtime produced by
    :func:`run_uvm_prefix` (typically a snapshot fork) and snapshot the
    result.

    The oversubscription occupant is reserved here, *after* forking:
    reserving frames is a pure allocator operation costing no simulated
    time, so deferring it past the (time-free, CPU-only) prefix leaves
    every observable identical to a cold run while letting points with
    different ratios share one prefix snapshot.
    """
    apply_oversubscription(runtime, app_bytes, ratio)
    runtime.run(body_program)
    value = metric(runtime) if metric is not None else None
    return ExperimentResult.from_runtime(runtime, system, config_label, metric=value)


def ratio_label(ratio: float) -> str:
    """The paper's column label for an oversubscription ratio.

    Ratios at or below 1.0 are the "fits" column ("<100%"); anything
    above rounds half-up to a whole percent (1.25 -> "125%").  Decimal
    arithmetic keeps binary-float artifacts (2.675 * 100 ==
    267.49999...) from shifting a column name.
    """
    if ratio <= 1.0:
        return "<100%"
    percent = (Decimal(str(ratio)) * 100).quantize(
        Decimal("1"), rounding=ROUND_HALF_UP
    )
    return f"{percent}%"
