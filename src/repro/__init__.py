"""repro — a reproduction of "UVM Discard: Eliminating Redundant Memory
Transfers for Accelerators" (Zhu et al., IISWC 2022).

The package is a discrete-event simulator of a CPU-GPU unified-virtual-
memory platform — driver, page queues, interconnect, faults, eviction —
with the paper's two discard implementations (`UvmDiscard`,
`UvmDiscardLazy`) integrated into the simulated driver, plus the paper's
workloads, baselines and a benchmark per evaluation table and figure.

Quick start::

    from repro import CudaRuntime, KernelSpec, BufferAccess, AccessMode
    from repro.units import MIB

    def program(cuda):
        data = cuda.malloc_managed(512 * MIB, "data")
        yield from cuda.host_write(data)          # init on the CPU
        cuda.prefetch_async(data)                 # H2D, overlapped
        cuda.launch(KernelSpec("consume", [
            BufferAccess(data, AccessMode.READ),
        ], flops=1e9))
        cuda.discard_async(data, mode="eager")    # contents now dead
        yield from cuda.synchronize()

    runtime = CudaRuntime()
    runtime.run(program)
    print(runtime.stats())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results of every table and figure.
"""

# NumPy is a hard runtime dependency: the residency bitmaps, workload
# data oracles and vectorized kernel hot paths are built on it.  Fail
# at import with an actionable message instead of an AttributeError
# deep inside a simulation when the interpreter has no (or an ancient)
# NumPy.  The floor matches pyproject.toml; 1.22 is the first release
# supporting every Python version this package does (>= 3.9).
try:
    import numpy as _numpy
except ImportError as _exc:  # pragma: no cover - environment-dependent
    raise ImportError(
        "repro requires NumPy (>= 1.22) at runtime; install it with "
        "`pip install 'numpy>=1.22'`"
    ) from _exc
_numpy_version = tuple(
    int(part) for part in _numpy.__version__.split(".")[:2] if part.isdigit()
)
if _numpy_version < (1, 22):  # pragma: no cover - environment-dependent
    raise ImportError(
        f"repro requires NumPy >= 1.22, found {_numpy.__version__}; "
        "upgrade with `pip install --upgrade 'numpy>=1.22'`"
    )
del _numpy, _numpy_version

from repro.access import AccessMode
from repro.core import DataOracle, DiscardAdvisor, UvmDiscard, UvmDiscardLazy
from repro.cuda import (
    BufferAccess,
    CudaRuntime,
    CudaStream,
    GpuSpec,
    HostSpec,
    KernelSpec,
    ManagedBuffer,
    a100_40gb,
    gtx_1070,
    rtx_3080ti,
)
from repro.driver import UvmDriver, UvmDriverConfig
from repro.harness.validation import check_driver_invariants
from repro.instrument.trace import Tracer
from repro.errors import (
    DataCorruptionError,
    DiscardSemanticsError,
    OutOfMemoryError,
    ReproError,
)
from repro.interconnect import pcie_gen3, pcie_gen4

__version__ = "1.0.0"

__all__ = [
    "AccessMode",
    "BufferAccess",
    "CudaRuntime",
    "CudaStream",
    "DataOracle",
    "DataCorruptionError",
    "DiscardAdvisor",
    "DiscardSemanticsError",
    "GpuSpec",
    "HostSpec",
    "KernelSpec",
    "ManagedBuffer",
    "OutOfMemoryError",
    "ReproError",
    "UvmDiscard",
    "UvmDiscardLazy",
    "UvmDriver",
    "UvmDriverConfig",
    "Tracer",
    "check_driver_invariants",
    "a100_40gb",
    "gtx_1070",
    "pcie_gen3",
    "pcie_gen4",
    "rtx_3080ti",
    "__version__",
]
