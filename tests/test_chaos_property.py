"""Property-based chaos tests: the three chaos guarantees under random
schedules.

Hypothesis draws arbitrary :class:`~repro.chaos.ChaosConfig` instances
(any mix of mechanisms, any seed) and asserts, on a small oversubscribed
FIR workload:

1. every online invariant check passes (strict validator never fires),
2. the functional output is byte-identical to the fault-free oracle,
3. the same seed reproduces the same event trace, tracer records and
   injection log.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_gpu

from repro.chaos import ChaosConfig, ChaosInjector, OnlineValidator, trace_digest
from repro.chaos.workloads import functional_fir
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.instrument.trace import TraceConfig, Tracer
from repro.units import MIB

#: Input data for the workload under test: fixed across the whole module
#: so hypothesis shrinks over the chaos schedule, not the data.
_DATA_RNG = np.random.default_rng(20220821)
SIGNAL = _DATA_RNG.standard_normal(1 << 19)  # 4 MiB on an 8 MiB GPU
TAPS = _DATA_RNG.standard_normal(15)


def run_fir(config):
    """One validated, traced run; returns (output bytes, digest, tracer
    digest, actions)."""
    runtime = CudaRuntime(
        gpu=tiny_gpu(8),
        driver_config=UvmDriverConfig(keep_transfer_records=True),
    )
    tracer = Tracer(TraceConfig(metrics_cadence=0)).install(runtime)
    validator = OnlineValidator(runtime.driver, cadence=16, strict=True)
    validator.install(runtime.env)
    injector = None
    if config is not None:
        injector = ChaosInjector(config).install(runtime)
    out = {}

    def program(cuda):
        out["result"] = yield from functional_fir(cuda, SIGNAL, TAPS)

    try:
        runtime.run(program)
        if injector is not None:
            injector.uninstall()  # quiesces leftover injected processes
        validator.check_now(allow_inflight=False)
    finally:
        validator.uninstall()
        if injector is not None:
            injector.uninstall()
        tracer.uninstall()
    actions = list(injector.actions) if injector is not None else []
    return (
        out["result"].tobytes(), trace_digest(runtime), tracer.digest(),
        actions,
    )


#: The fault-free oracle, computed once.
FAULT_FREE_BYTES, FAULT_FREE_DIGEST, _, _ = run_fir(None)

intervals = st.sampled_from([0, 5, 12, 25, 60])
probabilities = st.sampled_from([0.0, 0.1, 0.4])

chaos_configs = st.builds(
    ChaosConfig,
    seed=st.integers(min_value=0, max_value=2**16),
    link_degrade_interval=intervals,
    link_degrade_duration=st.sampled_from([10, 40]),
    link_degrade_factor_min=st.just(0.25),
    link_degrade_factor_max=st.sampled_from([0.5, 0.9]),
    transfer_fault_interval=intervals,
    ecc_retire_interval=intervals,
    replay_storm_interval=intervals,
    replay_storm_factor=st.sampled_from([1, 3]),
    batch_reorder_probability=probabilities,
    kernel_abort_probability=probabilities,
    kernel_abort_limit=st.sampled_from([1, 2]),
    pressure_spike_interval=intervals,
    pressure_spike_frames=st.sampled_from([1, 2]),
    pressure_spike_duration=st.sampled_from([15, 50]),
)


@settings(max_examples=12, deadline=None)
@given(config=chaos_configs)
def test_random_chaos_schedule_preserves_invariants_and_results(config):
    config.validate()
    chaos_bytes, chaos_digest, chaos_tracer_digest, actions = run_fir(config)
    # 1. strict validator raised nowhere (we got here), and
    # 2. outputs are byte-identical to the fault-free oracle.
    assert chaos_bytes == FAULT_FREE_BYTES
    # 3. the same seed reproduces the same trace, records and injections.
    (
        repeat_bytes, repeat_digest, repeat_tracer_digest, repeat_actions,
    ) = run_fir(config)
    assert repeat_bytes == chaos_bytes
    assert repeat_digest == chaos_digest
    assert repeat_tracer_digest == chaos_tracer_digest
    assert repeat_actions == actions


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_default_storm_is_deterministic_per_seed(seed):
    config = ChaosConfig.default_storm(seed=seed)
    first = run_fir(config)
    second = run_fir(config)
    assert first == second
    assert first[0] == FAULT_FREE_BYTES


def test_chaos_changes_the_trace_but_not_the_data():
    """A schedule with every mechanism on perturbs timing, not results."""
    config = ChaosConfig.default_storm(seed=5)
    chaos_bytes, chaos_digest, _, actions = run_fir(config)
    assert actions, "storm preset injected nothing on this workload"
    assert chaos_bytes == FAULT_FREE_BYTES
    assert chaos_digest != FAULT_FREE_DIGEST
