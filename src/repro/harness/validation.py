"""Driver-state invariant checking.

The structural invariants that define a well-formed UVM driver state,
available as a library function so applications (and the property-based
tests) can assert them at any quiescent point::

    check_driver_invariants(runtime.driver)

and — with ``allow_inflight=True`` — at *any* point between two engine
events, which is how the online validator of :mod:`repro.chaos` runs it
mid-simulation at a configurable cadence.

All checks consume the public inspection API
(:meth:`repro.driver.driver.UvmDriver.inspect`) rather than private
driver attributes.  Raises :class:`~repro.errors.SimulationError` with a
description of every violated invariant.
"""

from __future__ import annotations

from typing import List

from repro.driver.driver import UvmDriver
from repro.driver.inspect import BlockView, DriverInspection
from repro.driver.va_block import CPU
from repro.errors import SimulationError
from repro.instrument.traffic import TransferReason


def _block_on_gpu(view: BlockView) -> bool:
    return view.residency is not None and view.residency != CPU


def collect_invariant_problems(
    inspection: DriverInspection, allow_inflight: bool = False
) -> List[str]:
    """Return every violated structural invariant as a description string.

    With ``allow_inflight=False`` (the quiescent contract) every frame
    must be attributable and every block checked.  With
    ``allow_inflight=True`` the checks tolerate exactly the transient
    states a mid-flight residency operation creates: blocks whose index
    appears in ``inspection.inflight`` are skipped, and each GPU's
    allocator may hold up to one unqueued frame per in-flight block
    (frames acquired or vacated mid-operation).
    """
    problems: List[str] = []
    inflight = inspection.inflight if allow_inflight else frozenset()
    for name, gpu in inspection.gpus.items():
        queued = (
            len(gpu.used_queue_blocks)
            + len(gpu.discarded_queue_blocks)
            + gpu.unused_queue_frames
        )
        slack = gpu.used_frames - queued
        if allow_inflight:
            if not 0 <= slack <= len(inflight):
                problems.append(
                    f"{name}: {queued} frames reachable via queues but the "
                    f"allocator has {gpu.used_frames} in use, a slack of "
                    f"{slack} not explained by {len(inflight)} in-flight "
                    "operations"
                )
        elif slack != 0:
            problems.append(
                f"{name}: {queued} frames reachable via queues but the "
                f"allocator has {gpu.used_frames} in use"
            )
        if not 0 <= gpu.free_frames <= gpu.capacity_frames:
            problems.append(f"{name}: free-frame count out of range")
    for index, block in inspection.blocks.items():
        if index in inflight:
            continue
        if _block_on_gpu(block):
            gpu = inspection.gpus.get(block.residency)  # type: ignore[arg-type]
            if gpu is None:
                problems.append(
                    f"block {index}: resident on unknown GPU {block.residency!r}"
                )
                continue
            in_used = index in gpu.used_queue_blocks
            in_discarded = index in gpu.discarded_queue_blocks
            if in_used == in_discarded:
                problems.append(
                    f"block {index}: GPU-resident but in "
                    f"{'both queues' if in_used else 'no queue'}"
                )
            if not block.has_frame or not block.frame_allocated:
                problems.append(f"block {index}: GPU-resident without a frame")
            if in_discarded != block.discarded:
                problems.append(
                    f"block {index}: queue membership disagrees with its "
                    "discard flag"
                )
            if index in inspection.cpu_mapped:
                problems.append(
                    f"block {index}: mapped on the CPU while GPU-resident "
                    "(residency must be exclusive, §2.2)"
                )
        else:
            if block.has_frame:
                problems.append(f"block {index}: holds a frame while not on a GPU")
            for name, gpu in inspection.gpus.items():
                if index in gpu.mapped_blocks:
                    problems.append(
                        f"block {index}: mapped on {name} but resident on "
                        f"{block.residency}"
                    )
        problems.extend(_discard_semantics_problems(inspection, block))
    # Every mapping belongs to a registered block: the checks above never
    # see a freed block that something mapped again.
    mappings = [("the CPU", inspection.cpu_mapped)] + [
        (name, gpu.mapped_blocks) for name, gpu in inspection.gpus.items()
    ]
    for name, mapped in mappings:
        for index in sorted(mapped - inspection.blocks.keys() - inflight):
            problems.append(
                f"block {index}: mapped on {name} but not registered"
            )
    return problems


def _discard_semantics_problems(
    inspection: DriverInspection, block: BlockView
) -> List[str]:
    """Invariants of the discard state machine itself (§5.1/§5.2/§5.7)."""
    problems: List[str] = []
    index = block.index
    if block.discarded != (block.discard_kind is not None):
        problems.append(
            f"block {index}: discard flag disagrees with its discard kind "
            f"({block.discarded} vs {block.discard_kind!r})"
        )
    if block.discard_kind == "lazy" and block.sw_dirty:
        problems.append(
            f"block {index}: lazily discarded but its software dirty bit "
            "is still set (§5.2 requires the clear)"
        )
    if block.discard_kind == "eager":
        if index in inspection.cpu_mapped:
            problems.append(
                f"block {index}: eagerly discarded but still mapped on the "
                "CPU (§5.1 destroys every mapping)"
            )
        for name, gpu in inspection.gpus.items():
            if index in gpu.mapped_blocks:
                problems.append(
                    f"block {index}: eagerly discarded but still mapped on "
                    f"{name} (§5.1 destroys every mapping)"
                )
    if block.discarded and block.populated and not block.written_since_discard:
        problems.append(
            f"block {index}: discarded yet populated without a recorded "
            "write-after-discard"
        )
    return problems


def collect_conservation_problems(driver: UvmDriver) -> List[str]:
    """Transfer-byte conservation between the recorder and the classifier.

    Every byte of a block-attributed transfer enters the RMT classifier
    exactly once and stays there — pending, then resolved useful or
    redundant — so at any point between two engine events::

        traffic.block_bytes == rmt.classified_bytes + rmt.pending_bytes

    This holds under any fault-injection schedule because the migration
    engine records bytes only for the *successful* DMA attempt.
    """
    problems: List[str] = []
    traffic = driver.traffic
    rmt = driver.rmt
    accounted = rmt.classified_bytes + rmt.pending_bytes
    if traffic.block_bytes != accounted:
        problems.append(
            f"transfer-byte conservation broken: recorder saw "
            f"{traffic.block_bytes} block-attributed bytes but the RMT "
            f"classifier accounts for {accounted} "
            f"({rmt.classified_bytes} classified + {rmt.pending_bytes} pending)"
        )
    if traffic.block_bytes > traffic.total_bytes:
        problems.append(
            f"block-attributed bytes ({traffic.block_bytes}) exceed total "
            f"recorded traffic ({traffic.total_bytes})"
        )
    by_reason = sum(traffic.bytes_for(r) for r in TransferReason)
    if by_reason != traffic.total_bytes:
        problems.append(
            f"per-reason traffic totals {by_reason} but per-direction "
            f"totals {traffic.total_bytes}"
        )
    if traffic.records and len(traffic.records) == traffic.transfer_count:
        record_bytes = sum(r.nbytes for r in traffic.records)
        if record_bytes != traffic.total_bytes:
            problems.append(
                f"retained records sum to {record_bytes} bytes but the "
                f"running total is {traffic.total_bytes}"
            )
        problems.extend(_attribution_problems(traffic, rmt))
    return problems


def _attribution_problems(traffic, rmt) -> List[str]:
    """Byte-attribution conservation over a complete record set.

    Only meaningful when the recorder retained a record for every
    transfer (the caller checks); then the attributed views — per-buffer
    segments, per-direction/per-reason groupings, and per-record RMT
    fates — must each re-sum to the recorder's running totals.
    """
    problems: List[str] = []
    by_direction: dict = {}
    by_reason: dict = {}
    block_record_bytes = 0
    for record in traffic.records:
        direction = record.direction.value
        by_direction[direction] = by_direction.get(direction, 0) + record.nbytes
        reason = record.reason.value
        by_reason[reason] = by_reason.get(reason, 0) + record.nbytes
        if record.num_blocks > 0:
            block_record_bytes += record.nbytes
            if not record.segments:
                problems.append(
                    f"block-attributed record at t={record.time} has no "
                    "buffer segments"
                )
        if record.segments:
            segment_bytes = sum(nbytes for _, nbytes in record.segments)
            if segment_bytes != record.nbytes:
                problems.append(
                    f"record at t={record.time} moves {record.nbytes} bytes "
                    f"but its buffer segments sum to {segment_bytes}"
                )
    expected_direction = {
        "h2d": traffic.bytes_h2d,
        "d2h": traffic.bytes_d2h,
        "d2d": traffic.bytes_d2d,
    }
    for direction, expected in expected_direction.items():
        attributed = by_direction.get(direction, 0)
        if attributed != expected:
            problems.append(
                f"attributed {direction} bytes ({attributed}) disagree with "
                f"the recorder's running total ({expected})"
            )
    for reason in TransferReason:
        attributed = by_reason.get(reason.value, 0)
        expected = traffic.bytes_for(reason)
        if attributed != expected:
            problems.append(
                f"attributed {reason.value!r} bytes ({attributed}) disagree "
                f"with the recorder's running total ({expected})"
            )
    if block_record_bytes != traffic.block_bytes:
        problems.append(
            f"block-attributed record bytes ({block_record_bytes}) disagree "
            f"with the recorder's block-byte total ({traffic.block_bytes})"
        )
    fate_bytes = rmt.classified_record_bytes + rmt.pending_record_bytes
    if fate_bytes != traffic.block_bytes:
        problems.append(
            f"per-record RMT fates account for {fate_bytes} bytes but the "
            f"recorder saw {traffic.block_bytes} block-attributed bytes"
        )
    useful = sum(t.get("useful", 0) for t in rmt.record_fates.values())
    if useful != rmt.useful_bytes:
        problems.append(
            f"per-record useful bytes ({useful}) disagree with the "
            f"classifier's aggregate ({rmt.useful_bytes})"
        )
    redundant = rmt.classified_record_bytes - useful
    if redundant != rmt.redundant_bytes:
        problems.append(
            f"per-record redundant bytes ({redundant}) disagree with the "
            f"classifier's aggregate ({rmt.redundant_bytes})"
        )
    buffer_bytes = sum(
        sum(tally.values()) for tally in rmt.buffer_fates.values()
    )
    if buffer_bytes != rmt.classified_record_bytes:
        problems.append(
            f"per-buffer fate bytes ({buffer_bytes}) disagree with the "
            f"per-record fate bytes ({rmt.classified_record_bytes})"
        )
    return problems


def check_driver_invariants(
    driver: UvmDriver, allow_inflight: bool = False
) -> None:
    """Validate frame conservation, residency exclusivity and queues."""
    problems = collect_invariant_problems(
        driver.inspect(), allow_inflight=allow_inflight
    )
    if problems:
        raise SimulationError(
            "driver invariants violated:\n  " + "\n  ".join(problems)
        )


def check_transfer_conservation(driver: UvmDriver) -> None:
    """Validate the transfer-byte conservation invariants."""
    problems = collect_conservation_problems(driver)
    if problems:
        raise SimulationError(
            "driver invariants violated:\n  " + "\n  ".join(problems)
        )
