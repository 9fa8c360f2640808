"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cuda.device import GpuSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.units import GB, MIB

#: The one seed all test randomness derives from.  Fixed by default so
#: every run sees identical data; export ``REPRO_TEST_SEED`` to probe
#: other draws (a failure then reports which seed to reproduce with).
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "20220821"))

# A deeper search for tests that take their example count from the
# active profile (``--hypothesis-profile=ci``); tier-1 keeps the default.
settings.register_profile("ci", max_examples=2000, deadline=None)


def tiny_gpu(memory_mib: int = 64, name: str = "gpu0") -> GpuSpec:
    """A deliberately small GPU so tests exercise eviction cheaply."""
    return GpuSpec(
        name=name,
        memory_bytes=memory_mib * MIB,
        effective_flops=1e12,
        local_bandwidth=500 * GB,
        zero_bandwidth=500 * GB,
        model=f"test-gpu-{memory_mib}MiB",
    )


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/ snapshots instead of diffing "
        "against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should regenerate golden snapshots."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def collector_off():
    """Suspend the cyclic garbage collector for one test, starting with
    no garbage pending, so ``gc.collect()`` counts only the cycles the
    test itself left behind; the previous setting is restored after."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def rng(request) -> np.random.Generator:
    """A seeded NumPy generator for test input data.

    Keyed by :data:`TEST_SEED` plus the requesting test's node id, so
    (a) a full run and a single-test run hand the test identical data,
    and (b) no test's draws depend on which other tests ran before it.
    """
    return np.random.default_rng([TEST_SEED, *request.node.nodeid.encode()])


@pytest.fixture
def runtime() -> CudaRuntime:
    """A runtime with a 64 MiB GPU and strict semantics checking."""
    config = UvmDriverConfig(strict_lazy=False, keep_transfer_records=True)
    return CudaRuntime(gpu=tiny_gpu(), driver_config=config)


@pytest.fixture
def big_runtime() -> CudaRuntime:
    """A runtime whose GPU comfortably fits the test workloads."""
    return CudaRuntime(gpu=tiny_gpu(memory_mib=1024))
