"""Tests for the tracer's track queries and Chrome export, and the
invariant checker."""

import json

import pytest

from conftest import tiny_gpu

from repro import AccessMode, BufferAccess, CudaRuntime, KernelSpec, Tracer
from repro.driver.va_block import VaBlock
from repro.errors import SimulationError
from repro.harness.validation import check_driver_invariants
from repro.units import BIG_PAGE, MIB


def traced_run(program_factory, memory_mib=64):
    runtime = CudaRuntime(gpu=tiny_gpu(memory_mib))
    tracer = Tracer().install(runtime)
    runtime.run(program_factory)
    tracer.uninstall()
    return runtime, tracer


def spans(tracer, category):
    return [r for r in tracer.events if r[0] == "X" and r[3] == category]


class TestTracerQueries:
    def test_kernels_and_transfers_recorded(self):
        def program(cuda):
            buffer = cuda.malloc_managed(8 * MIB, "data")
            yield from cuda.host_write(buffer)
            cuda.prefetch_async(buffer)
            cuda.launch(
                KernelSpec(
                    "work", [BufferAccess(buffer, AccessMode.READ)], flops=1e9
                )
            )
            yield from cuda.synchronize()

        _, tracer = traced_run(program)
        assert [r[2] for r in spans(tracer, "kernel")] == ["work"]
        assert len(spans(tracer, "migration")) >= 1
        assert all(r[5] >= r[4] for r in tracer.events if r[0] == "X")

    def test_busy_seconds(self):
        def program(cuda):
            buffer = cuda.malloc_managed(4 * MIB, "data")
            cuda.launch(
                KernelSpec(
                    "k", [BufferAccess(buffer, AccessMode.WRITE)], duration=0.5
                )
            )
            yield from cuda.synchronize()

        _, tracer = traced_run(program)
        assert tracer.busy_seconds("gpu0/compute") == pytest.approx(
            0.5, rel=0.1
        )

    def test_prefetch_overlaps_compute(self):
        """The overlap the paper's UVM-opt relies on, made visible."""

        def program(cuda):
            a = cuda.malloc_managed(16 * MIB, "a")
            b = cuda.malloc_managed(16 * MIB, "b")
            yield from cuda.host_write(a)
            yield from cuda.host_write(b)
            transfer = cuda.create_stream("transfer")
            cuda.prefetch_async(a)
            yield from cuda.synchronize()
            # Kernel on A while B prefetches concurrently.
            cuda.prefetch_async(b, stream=transfer)
            cuda.launch(
                KernelSpec(
                    "k", [BufferAccess(a, AccessMode.READ)], duration=0.01
                )
            )
            yield from cuda.synchronize()

        _, tracer = traced_run(program)
        assert tracer.overlap_seconds("gpu0/compute", "link/h2d") > 0

    def test_overlap_of_disjoint_tracks_is_zero(self):
        tracer = Tracer()
        tracer.span("a", "x", 0.0, 1.0)
        tracer.span("b", "y", 2.0, 3.0)
        assert tracer.overlap_seconds("a", "b") == 0.0


class TestChromeTraceExport:
    def test_export_format(self, tmp_path):
        tracer = Tracer()
        tracer.span("gpu0/compute", "k1", 0.001, 0.002, args={"n": 1})
        target = tmp_path / "trace.json"
        tracer.write(str(target))
        data = json.loads(target.read_text())
        (event,) = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == pytest.approx(1000.0)  # microseconds
        assert event["dur"] == pytest.approx(1000.0)
        assert event["args"] == {"n": 1, "id": 0}
        (thread,) = [
            e for e in data["traceEvents"] if e["name"] == "thread_name"
        ]
        assert thread["tid"] == event["tid"]
        assert thread["args"] == {"name": "gpu0/compute"}


class TestInvariantChecker:
    def test_clean_runtime_passes(self):
        def program(cuda):
            buffer = cuda.malloc_managed(8 * MIB, "data")
            cuda.prefetch_async(buffer)
            cuda.discard_async(buffer, mode="eager")
            yield from cuda.synchronize()

        runtime = CudaRuntime(gpu=tiny_gpu())
        runtime.run(program)
        check_driver_invariants(runtime.driver)  # must not raise

    def test_detects_forged_residency(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        block = VaBlock(999, BIG_PAGE)
        runtime.driver.register_blocks([block])
        block.residency = "gpu0"  # lie: no frame, no queue, no mapping
        with pytest.raises(SimulationError, match="invariants violated"):
            check_driver_invariants(runtime.driver)

    def test_detects_leaked_frame(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        # Allocate a frame behind the driver's back.
        runtime.driver._gpu("gpu0").allocator.allocate()
        with pytest.raises(SimulationError, match="allocator has"):
            check_driver_invariants(runtime.driver)
