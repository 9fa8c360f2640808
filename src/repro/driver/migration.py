"""Migration engine: moves va_blocks across the interconnect.

Each GPU has one copy engine per direction (full-duplex DMA, matching
discrete NVIDIA GPUs).  Contiguous runs of va_blocks are coalesced into a
single DMA command, which matters because the link's effective bandwidth
is a strong function of transfer size (§5.4, Figure 4).
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Sequence

from typing import Optional

import numpy as np

from repro.driver.va_block import VaBlock
from repro.engine.core import Environment
from repro.engine.resources import Resource
from repro.errors import TransferError
from repro.instrument.counters import Counters
from repro.instrument.rmt import RmtClassifier
from repro.instrument.trace import NULL_TRACER
from repro.instrument.traffic import TrafficRecorder, TransferDirection, TransferReason
from repro.interconnect.link import Link
from repro.units import BIG_PAGE, SMALL_PAGE, us


def coalesce_spans(blocks: Iterable[VaBlock]) -> List[List[VaBlock]]:
    """Group blocks into runs of consecutive block indices.

    The driver migrates each run as one DMA command; a fragmented set of
    blocks therefore pays the per-command latency once per run.  Split
    blocks (§5.4 policy disabled) break coalescing: their 4 KiB pages
    move as separate single-block commands.
    """
    ordered = sorted(blocks, key=lambda b: b.index)
    if len(ordered) >= 32:
        # Vectorized run detection: a new span starts wherever the index
        # gap is not exactly 1 or a split block borders the boundary.
        # Output is identical to the scalar loop below.
        indices = np.fromiter(
            (b.index for b in ordered), dtype=np.int64, count=len(ordered)
        )
        split = np.fromiter(
            (b.split for b in ordered), dtype=bool, count=len(ordered)
        )
        breaks = (
            (np.diff(indices) != 1) | split[1:] | split[:-1]
        ).nonzero()[0] + 1
        spans = []
        start = 0
        for stop in breaks.tolist():
            spans.append(ordered[start:stop])
            start = stop
        spans.append(ordered[start:])
        return spans
    spans: List[List[VaBlock]] = []
    for block in ordered:
        if (
            spans
            and spans[-1][-1].index + 1 == block.index
            and not block.split
            and not spans[-1][-1].split
        ):
            spans[-1].append(block)
        else:
            spans.append([block])
    return spans


class CopyEngines:
    """The two DMA engines (one per direction) of a single GPU."""

    def __init__(self, env: Environment) -> None:
        self.h2d = Resource(env, capacity=1, name="h2d")
        self.d2h = Resource(env, capacity=1, name="d2h")

    def engine_for(self, direction: TransferDirection) -> Resource:
        if direction is TransferDirection.HOST_TO_DEVICE:
            return self.h2d
        if direction is TransferDirection.DEVICE_TO_HOST:
            return self.d2h
        raise ValueError(f"no copy engine for {direction}")


class MigrationEngine:
    """Executes block transfers over one link, with traffic accounting."""

    #: Fraction of a command's wire time burned before a transient fault
    #: aborts it — the DMA engine detects the failure mid-flight, so the
    #: wasted wire occupancy is charged but no bytes are accounted.
    FAULT_WASTE_FRACTION = 0.5

    def __init__(
        self,
        env: Environment,
        link: Link,
        traffic: TrafficRecorder,
        rmt: RmtClassifier,
        counters: Optional[Counters] = None,
    ) -> None:
        self.env = env
        self.link = link
        self.traffic = traffic
        self.rmt = rmt
        self.counters = counters
        #: Simulated-time tracer; the shared no-op singleton when tracing
        #: is off (see :mod:`repro.instrument.trace`).
        self.tracer = NULL_TRACER
        #: Retry budget and exponential-backoff base for injected
        #: transient transfer faults; the driver sets both from its
        #: config (``transfer_max_retries`` / ``transfer_retry_backoff``).
        self.max_retries = 3
        self.retry_backoff = us(20.0)

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for one coalesced command of ``nbytes``."""
        return self.link.transfer_time(nbytes, chunk=min(nbytes, BIG_PAGE))

    def _timed_command(self, link: Link, nbytes: int, chunk: int) -> Generator:
        """Occupy the wire for one DMA command, retrying injected faults.

        Every attempt that hits an armed transient fault burns
        :data:`FAULT_WASTE_FRACTION` of its wire time (the command aborts
        mid-flight), waits a linearly growing backoff and retries.  Bytes
        are *never* accounted here — callers record traffic only after
        this generator returns, i.e. only for the successful attempt, so
        the byte-conservation invariant holds across any fault schedule.
        """
        counters = self.counters
        attempts = 0
        limit = link.fault_consumption_limit
        while (
            limit is None or attempts < limit
        ) and link.consume_transfer_fault():
            attempts += 1
            if counters is not None:
                counters.bump(Counters.TRANSFER_FAULTS)
            wasted = link.transfer_time(nbytes, chunk=chunk)
            yield self.env.timeout(wasted * self.FAULT_WASTE_FRACTION)
            if attempts > self.max_retries:
                raise TransferError(
                    f"{link.name}: DMA command of {nbytes} bytes failed "
                    f"{attempts} times, exceeding the retry budget of "
                    f"{self.max_retries}"
                )
            if counters is not None:
                counters.bump(Counters.TRANSFER_RETRIES)
            yield self.env.timeout(self.retry_backoff * attempts)
        yield self.env.timeout(link.transfer_time(nbytes, chunk=chunk))

    def trace_command(
        self,
        track: str,
        name: str,
        started: float,
        span_bytes: int,
        first_block: Optional[int],
        num_blocks: int,
    ) -> None:
        """Record one DMA command as a migration span (tracer enabled).

        The driver's eviction writeback records its wire span through
        this too, so every wire span has one format."""
        tracer = self.tracer
        args = {"bytes": span_bytes, "blocks": num_blocks}
        if first_block is not None:
            args["first_block"] = first_block
        tracer.span(
            track, name, started, self.env.now, category="migration", args=args
        )
        tracer.observe("transfer_span_bytes", span_bytes)

    def transfer_blocks(
        self,
        blocks: Sequence[VaBlock],
        direction: TransferDirection,
        reason: TransferReason,
        engines: CopyEngines,
    ) -> Generator:
        """Move ``blocks`` across the link as coalesced DMA commands.

        A generator process: occupies the direction's copy engine for the
        duration of each command, records traffic, and opens an RMT
        tracking record per block.
        """
        if not blocks:
            return
        engine = engines.engine_for(direction)
        # Hold the engine for the whole batch, so no queued transfer (e.g.
        # a prefetch) can slip in between the spans of a fault batch.  The
        # uncontended acquire is a synchronous no-event grant.
        request = engine.try_acquire()
        if request is None:
            request = engine.request()
            yield request
        env = self.env
        link = self.link
        record = self.traffic.record
        on_transfer = self.rmt.on_transfer
        tracer = self.tracer
        try:
            if len(blocks) == 1 and not tracer.enabled:
                # Single-block command (single-block faults and
                # prefetches emit these constantly): skip the
                # sort/coalesce machinery and, fault-free, the
                # _timed_command generator frame.  Identical wire time,
                # traffic and RMT accounting.
                block = blocks[0]
                span_bytes = block.used_bytes
                chunk = (
                    SMALL_PAGE
                    if block.split
                    else (span_bytes if span_bytes < BIG_PAGE else BIG_PAGE)
                )
                if link._armed_faults:
                    yield from self._timed_command(link, span_bytes, chunk)
                else:
                    wire = link.transfer_time(span_bytes, chunk=chunk)
                    if not env.advance(wire):
                        yield env.timeout(wire)
                rec = record(
                    env.now,
                    direction,
                    span_bytes,
                    reason,
                    first_block=block.index,
                    num_blocks=1,
                    blocks=blocks,
                )
                on_transfer(
                    block.index, span_bytes, direction, reason, rec, block
                )
                return
            for span in coalesce_spans(blocks):
                span_bytes = sum(b.used_bytes for b in span)
                # §5.4: a block whose 2 MiB mapping was split moves in
                # 4 KiB pieces — the higher-cost transfer the alignment
                # policy exists to avoid.
                chunk = (
                    SMALL_PAGE if span[0].split else min(span_bytes, BIG_PAGE)
                )
                started = env.now if tracer.enabled else 0.0
                if link._armed_faults:
                    yield from self._timed_command(link, span_bytes, chunk)
                else:
                    wire = link.transfer_time(span_bytes, chunk=chunk)
                    if not env.advance(wire):
                        yield env.timeout(wire)
                if tracer.enabled:
                    self.trace_command(
                        f"link/{direction.value}",
                        reason.value,
                        started,
                        span_bytes,
                        span[0].index,
                        len(span),
                    )
                rec = record(
                    env.now,
                    direction,
                    span_bytes,
                    reason,
                    first_block=span[0].index,
                    num_blocks=len(span),
                    blocks=span,
                )
                for block in span:
                    on_transfer(
                        block.index,
                        block.used_bytes,
                        direction,
                        reason,
                        rec,
                        block,
                    )
        finally:
            engine.release(request)

    def transfer_blocks_peer(
        self,
        blocks: Sequence[VaBlock],
        p2p_link: Link,
        source_engines: CopyEngines,
        destination_engines: CopyEngines,
    ) -> Generator:
        """Direct GPU-to-GPU migration over a peer link (§2.3).

        Occupies the source's outbound and the destination's inbound DMA
        engine for the duration; one D2D traffic record per coalesced
        span.
        """
        if not blocks:
            return
        out_request = source_engines.d2h.try_acquire()
        if out_request is None:
            out_request = source_engines.d2h.request()
            yield out_request
        in_request = destination_engines.h2d.try_acquire()
        if in_request is None:
            in_request = destination_engines.h2d.request()
            yield in_request
        env = self.env
        tracer = self.tracer
        try:
            for span in coalesce_spans(blocks):
                span_bytes = sum(b.used_bytes for b in span)
                started = env.now if tracer.enabled else 0.0
                yield from self._timed_command(p2p_link, span_bytes, BIG_PAGE)
                if tracer.enabled:
                    self.trace_command(
                        "link/p2p",
                        TransferReason.FAULT_MIGRATION.value,
                        started,
                        span_bytes,
                        span[0].index,
                        len(span),
                    )
                rec = self.traffic.record(
                    env.now,
                    TransferDirection.DEVICE_TO_DEVICE,
                    span_bytes,
                    TransferReason.FAULT_MIGRATION,
                    first_block=span[0].index,
                    num_blocks=len(span),
                    blocks=span,
                )
                for block in span:
                    self.rmt.on_transfer(
                        block.index,
                        block.used_bytes,
                        TransferDirection.DEVICE_TO_DEVICE,
                        TransferReason.FAULT_MIGRATION,
                        rec,
                        block,
                    )
        finally:
            source_engines.d2h.release(out_request)
            destination_engines.h2d.release(in_request)

    def raw_transfer(
        self,
        nbytes: int,
        direction: TransferDirection,
        reason: TransferReason,
        engines: CopyEngines,
    ) -> Generator:
        """A block-less bulk transfer (explicit memcpy in the baselines)."""
        if nbytes <= 0:
            return
        engine = engines.engine_for(direction)
        request = engine.try_acquire()
        if request is None:
            request = engine.request()
            yield request
        tracer = self.tracer
        started = self.env.now if tracer.enabled else 0.0
        try:
            yield from self._timed_command(
                self.link, nbytes, min(nbytes, BIG_PAGE)
            )
        finally:
            engine.release(request)
        if tracer.enabled:
            self.trace_command(
                f"link/{direction.value}", reason.value, started, nbytes, None, 0
            )
        self.traffic.record(self.env.now, direction, nbytes, reason)
