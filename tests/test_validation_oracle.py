"""Mutation-style oracle tests: corrupted driver state IS detected.

A validator that never fires is indistinguishable from one that works.
Each test here injects one specific corruption into an otherwise healthy
driver — double residency, a leaked frame, queue/allocator mismatch,
broken discard semantics, broken transfer-byte conservation — and
asserts the validation layer reports exactly that problem.

The second half pins the public inspection API surface
(:meth:`repro.driver.driver.UvmDriver.inspect`) that the validation
layer and the chaos subsystem are built on: field sets, snapshot
semantics, immutability, and the guarantee that
``repro.harness.validation`` itself never reaches into private driver
state.
"""

from __future__ import annotations

import dataclasses
import inspect as pyinspect

import pytest

from conftest import tiny_gpu

from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.driver.inspect import BlockView, DriverInspection, GpuView
from repro.driver.va_block import DiscardKind
from repro.errors import SimulationError
from repro.harness.validation import (
    check_driver_invariants,
    check_transfer_conservation,
    collect_conservation_problems,
    collect_invariant_problems,
)
from repro.units import MIB


def resident_runtime(nbytes=8 * MIB) -> CudaRuntime:
    """A quiescent runtime with GPU-resident blocks to corrupt."""
    runtime = CudaRuntime(
        gpu=tiny_gpu(16),
        driver_config=UvmDriverConfig(keep_transfer_records=True),
    )

    def program(cuda):
        buf = cuda.malloc_managed(nbytes, "data")
        yield from cuda.host_write(buf)
        cuda.prefetch_async(buf)
        yield from cuda.synchronize()

    runtime.run(program)
    check_driver_invariants(runtime.driver)  # healthy before corruption
    return runtime


def gpu_block(runtime):
    return next(
        b for b in runtime.driver._blocks.values() if b.frame is not None
    )


def problems_of(runtime, allow_inflight=False):
    return collect_invariant_problems(
        runtime.driver.inspect(), allow_inflight=allow_inflight
    )


class TestCorruptionDetection:
    def test_double_resident_block_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        # Map it on the CPU while it is GPU-resident: §2.2 exclusivity.
        runtime.driver.cpu_page_table.map_block(block.index)
        problems = problems_of(runtime)
        assert any(
            "mapped on the CPU while GPU-resident" in p for p in problems
        )
        with pytest.raises(SimulationError, match="driver invariants violated"):
            check_driver_invariants(runtime.driver)

    def test_leaked_frame_detected(self):
        runtime = resident_runtime()
        gpu_name = gpu_block(runtime).residency
        # Allocate behind the driver's back: a frame no queue can reach.
        runtime.driver._gpu(gpu_name).allocator.allocate()
        problems = problems_of(runtime)
        assert any("allocator has" in p for p in problems)
        # The leak is invisible to the relaxed mid-flight contract only
        # when in-flight operations could explain it — here there are
        # none, so it must still be reported.
        assert any("allocator has" in p for p in problems_of(runtime, True))

    def test_queue_allocator_mismatch_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        frame = block.frame
        block.frame = None  # the queue entry now points at no frame
        problems = problems_of(runtime)
        assert any("GPU-resident without a frame" in p for p in problems)
        block.frame = frame

    def test_frame_without_residency_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        block.residency = None  # keeps the frame: an orphaned hold
        problems = problems_of(runtime)
        assert any("holds a frame while not on a GPU" in p for p in problems)

    def test_discard_flag_kind_disagreement_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        block.discarded = True  # no discard_kind set
        problems = problems_of(runtime)
        assert any("discard flag disagrees" in p for p in problems)

    def test_lazy_discard_with_dirty_bit_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        block.discarded = True
        block.discard_kind = DiscardKind.LAZY
        block.sw_dirty = True
        problems = problems_of(runtime)
        assert any("software dirty bit" in p for p in problems)

    def test_eager_discard_with_live_mapping_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        block.discarded = True
        block.discard_kind = DiscardKind.EAGER
        # The GPU mapping from prefetch is still live — §5.1 forbids it.
        problems = problems_of(runtime)
        assert any("eagerly discarded but still mapped" in p for p in problems)

    def test_discarded_populated_without_write_detected(self):
        runtime = resident_runtime()
        block = gpu_block(runtime)
        block.discarded = True
        block.discard_kind = DiscardKind.LAZY
        block.sw_dirty = False
        block.populated = True
        block.written_since_discard = False
        problems = problems_of(runtime)
        assert any("without a recorded write-after-discard" in p for p in problems)

    def test_mapping_of_an_unregistered_block_detected(self):
        runtime = resident_runtime()
        driver = runtime.driver
        gpu_name = gpu_block(runtime).residency
        # A freed block that something maps again, on each side.
        freed = max(driver._blocks) + 1
        driver.cpu_page_table.map_block(freed)
        driver.gpu_page_table(gpu_name).map_block(freed)
        expected = [
            f"block {freed}: mapped on the CPU but not registered",
            f"block {freed}: mapped on {gpu_name} but not registered",
        ]
        assert problems_of(runtime) == expected
        assert problems_of(runtime, True) == expected

    def test_conservation_corruption_detected(self):
        runtime = resident_runtime()
        assert collect_conservation_problems(runtime.driver) == []
        runtime.driver.traffic.block_bytes += 4096
        problems = collect_conservation_problems(runtime.driver)
        assert any("conservation broken" in p for p in problems)
        with pytest.raises(SimulationError, match="driver invariants violated"):
            check_transfer_conservation(runtime.driver)

    def test_record_sum_corruption_detected(self):
        runtime = resident_runtime()
        record = runtime.driver.traffic.records[0]
        try:
            record.nbytes += 512
        except (AttributeError, dataclasses.FrozenInstanceError):
            object.__setattr__(record, "nbytes", record.nbytes + 512)
        problems = collect_conservation_problems(runtime.driver)
        assert any("retained records sum" in p for p in problems)

    def test_healthy_driver_reports_nothing(self):
        runtime = resident_runtime()
        assert problems_of(runtime) == []
        assert collect_conservation_problems(runtime.driver) == []
        check_driver_invariants(runtime.driver)
        check_transfer_conservation(runtime.driver)


class TestInspectionApiPinning:
    """The public inspection surface the validation layer depends on."""

    def test_view_field_sets_are_stable(self):
        assert {f.name for f in dataclasses.fields(GpuView)} == {
            "name",
            "capacity_frames",
            "free_frames",
            "used_frames",
            "retired_frames",
            "unused_queue_frames",
            "used_queue_blocks",
            "discarded_queue_blocks",
            "mapped_blocks",
        }
        assert {f.name for f in dataclasses.fields(BlockView)} == {
            "index",
            "used_bytes",
            "residency",
            "has_frame",
            "frame_owner",
            "frame_allocated",
            "populated",
            "discarded",
            "discard_kind",
            "sw_dirty",
            "written_since_discard",
        }
        assert {f.name for f in dataclasses.fields(DriverInspection)} == {
            "gpus",
            "blocks",
            "inflight",
            "cpu_mapped",
        }

    def test_views_are_frozen(self):
        runtime = resident_runtime()
        inspection = runtime.driver.inspect()
        view = inspection.gpus["gpu0"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.free_frames = 99
        block = next(iter(inspection.blocks.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.populated = False

    def test_inspection_is_a_snapshot(self):
        runtime = resident_runtime()
        before = runtime.driver.inspect()
        block = gpu_block(runtime)
        block.frame = None  # mutate the live driver
        assert before.block(block.index).has_frame  # snapshot unchanged
        after = runtime.driver.inspect()
        assert not after.block(block.index).has_frame

    def test_lookup_helpers(self):
        runtime = resident_runtime()
        inspection = runtime.driver.inspect()
        assert inspection.gpu("gpu0").name == "gpu0"
        index = next(iter(inspection.blocks))
        assert inspection.block(index).index == index
        with pytest.raises(KeyError):
            inspection.gpu("nope")

    def test_validation_layer_uses_no_private_driver_state(self):
        import repro.harness.validation as validation

        source = pyinspect.getsource(validation)
        for private in ("._blocks", "._gpus", "._inflight", "._gpu("):
            assert private not in source, (
                f"validation reaches into private driver state via {private!r}"
            )

    def test_online_validator_uses_inspection(self):
        import repro.chaos.validator as validator

        source = pyinspect.getsource(validator)
        assert ".inspect()" in source
        for private in ("._blocks", "._gpus"):
            assert private not in source
