"""Coverage for runtime/driver extras: driver trace records, host_update,
per-device memcpy engines."""

import pytest

from conftest import tiny_gpu

from repro import CudaRuntime, Tracer
from repro.instrument.trace import NULL_TRACER
from repro.instrument.traffic import TransferDirection
from repro.units import MIB


class TestDriverTraceRecords:
    def test_driver_records_reclaims_and_discards(self):
        runtime = CudaRuntime(gpu=tiny_gpu(8))
        tracer = Tracer().install(runtime)
        buffer = runtime.malloc_managed(6 * MIB, "a")
        other = runtime.malloc_managed(6 * MIB, "b")

        def program(cuda):
            cuda.prefetch_async(buffer)
            cuda.discard_async(buffer, mode="eager")
            cuda.prefetch_async(other)  # pressure -> transfer-free reclaims
            yield from cuda.synchronize()

        runtime.run(program)
        names = {(r[1], r[2]) for r in tracer.events}
        assert ("driver/discard", "UvmDiscard") in names
        assert ("gpu0/evict", "reclaim_discarded") in names

    def test_untraced_run_records_nothing(self):
        runtime = CudaRuntime(gpu=tiny_gpu(8))
        buffer = runtime.malloc_managed(6 * MIB, "a")

        def program(cuda):
            cuda.prefetch_async(buffer)
            yield from cuda.synchronize()

        runtime.run(program)
        assert runtime.driver.tracer is NULL_TRACER
        assert runtime.tracer.dropped == 0


class TestHostUpdate:
    def test_readwrite_from_host(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        buffer = runtime.malloc_managed(4 * MIB, "a")

        def program(cuda):
            yield from cuda.host_write(buffer)
            cuda.prefetch_async(buffer)
            yield from cuda.synchronize()
            yield from cuda.host_update(buffer)  # RMW pulls data back

        runtime.run(program)
        runtime.driver.finalize()
        # The GPU round trip was justified by the read side of the RMW.
        assert runtime.driver.rmt.useful_bytes == 2 * 4 * MIB
        assert all(b.on_cpu for b in buffer.blocks)
        assert all(b.version == 2 for b in buffer.blocks)


class TestPerDeviceMemcpy:
    def test_memcpy_engines_per_device(self):
        runtime = CudaRuntime(
            gpus=[tiny_gpu(64, "gpu0"), tiny_gpu(64, "gpu1")]
        )
        s0 = runtime.create_stream("s0")
        s1 = runtime.create_stream("s1")

        def program(cuda):
            # Same direction on different devices: engines are distinct,
            # so the transfers overlap.
            cuda.memcpy_async(
                64 * MIB, TransferDirection.HOST_TO_DEVICE, stream=s0,
                device="gpu0",
            )
            cuda.memcpy_async(
                64 * MIB, TransferDirection.HOST_TO_DEVICE, stream=s1,
                device="gpu1",
            )
            yield from cuda.synchronize()

        runtime.run(program)
        single = runtime.link.transfer_time(64 * MIB)
        assert runtime.elapsed == pytest.approx(single, rel=0.05)

    def test_same_device_serializes(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        s0 = runtime.create_stream("s0")
        s1 = runtime.create_stream("s1")

        def program(cuda):
            cuda.memcpy_async(
                64 * MIB, TransferDirection.HOST_TO_DEVICE, stream=s0
            )
            cuda.memcpy_async(
                64 * MIB, TransferDirection.HOST_TO_DEVICE, stream=s1
            )
            yield from cuda.synchronize()

        runtime.run(program)
        single = runtime.link.transfer_time(64 * MIB)
        assert runtime.elapsed == pytest.approx(2 * single, rel=0.05)
