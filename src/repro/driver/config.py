"""UVM driver tuning knobs and cost calibration.

All time constants are in seconds.  Defaults are calibrated against the
paper's testbed measurements: Table 2's API costs, the §7.3 observation
that fault-only remapping can cost up to 3.9x on Radix-sort, and NVIDIA's
published fault-handling latencies (tens of microseconds per replayable
fault batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import us


@dataclass
class UvmDriverConfig:
    """Behaviour and cost parameters of the simulated driver."""

    # --- GPU fault handling --------------------------------------------
    #: Fixed cost of draining one batch of replayable GPU faults: fault
    #: buffer read, preprocessing, and the replay command round-trip.
    fault_batch_overhead: float = field(default=us(45.0))
    #: Per-va_block servicing cost within a fault batch.
    fault_per_block: float = field(default=us(2.0))

    # --- CPU fault handling ---------------------------------------------
    #: Cost of one CPU page-fault entry into the driver.
    cpu_fault_overhead: float = field(default=us(4.0))

    # --- prefetch (`cudaMemPrefetchAsync`) ------------------------------
    #: Fixed per-call driver cost, regardless of how much is moved.
    prefetch_command_overhead: float = field(default=us(10.0))
    #: Per-block processing (range walk, residency check) during prefetch.
    prefetch_per_block: float = field(default=us(0.4))
    #: Per-block cost when the prefetch "neither transfers nor prefaults
    #: memory but only updates the recency of page accesses" (§7.5.1) —
    #: the overhead that makes UVM-opt slightly slower than No-UVM when
    #: everything fits on the GPU.
    recency_update_per_block: float = field(default=us(0.25))

    # --- discard ---------------------------------------------------------
    #: Per-call fixed cost of a discard API call (range lookup, locking).
    discard_command_overhead: float = field(default=us(1.0))
    #: Per-block cost of clearing a software dirty bit (UvmDiscardLazy);
    #: "significantly cheaper than unmapping or mapping GPU PTEs" (§5.2).
    lazy_dirty_clear_per_block: float = field(default=us(0.05))
    #: Whether the discarded-page FIFO queue (§5.5) is enabled.  Disabling
    #: it reclaims pages immediately on discard — an ablation knob showing
    #: why the paper keeps discarded pages around for cheap revival.
    discarded_queue_enabled: bool = True

    # --- driver-side auto-prefetch (extension) ---------------------------
    #: Detect sequential fault streams and prefetch ahead of them, in the
    #: spirit of the adaptive oversubscription-management policies of
    #: Ganguly et al. [21, 22].  Off by default: the paper's UVM-opt
    #: baseline relies on *application* prefetches.
    auto_prefetch_enabled: bool = False
    #: Blocks to prefetch ahead once a stream is detected.
    auto_prefetch_depth: int = 8
    #: Consecutive sequential blocks that establish a stream.
    auto_prefetch_trigger: int = 4

    # --- policy ----------------------------------------------------------
    #: Used-queue replacement policy: "lru" (the driver's pseudo-LRU,
    #: §5.5) or "fifo" (insertion order; an ablation showing why recency
    #: matters for the backward pass's reverse-order re-reads).
    eviction_policy: str = "lru"

    #: Raise :class:`~repro.errors.DiscardSemanticsError` on UvmDiscardLazy
    #: misuse (reuse without the mandatory prefetch) instead of merely
    #: counting it and corrupting the simulated data, which is what real
    #: hardware would do.
    strict_lazy: bool = False
    #: Enforce the §5.4 policy of ignoring partial (non-2MiB-aligned)
    #: discard requests.  Disabling is an ablation that splits 2 MiB
    #: mappings and transfers the remainder in 4 KiB pieces.
    require_full_blocks: bool = True

    # --- transfer fault recovery ------------------------------------------
    #: Retry budget for a DMA command that hits a transient transfer
    #: fault (injected by the chaos subsystem; real hardware sees these
    #: as PCIe replay/ECC events).  Exceeding the budget raises
    #: :class:`~repro.errors.TransferError`.
    transfer_max_retries: int = 3
    #: Base backoff between transfer retries; attempt ``n`` waits
    #: ``n * transfer_retry_backoff`` before re-issuing the command.
    transfer_retry_backoff: float = field(default=us(20.0))

    # --- instrumentation --------------------------------------------------
    #: Retain individual transfer records (memory-heavy; tests only).
    keep_transfer_records: bool = False

    def validate(self) -> None:
        """Sanity-check all cost parameters (non-negative)."""
        if self.eviction_policy not in ("lru", "fifo"):
            raise ValueError(
                f"eviction_policy must be 'lru' or 'fifo', got "
                f"{self.eviction_policy!r}"
            )
        for name in (
            "fault_batch_overhead",
            "fault_per_block",
            "cpu_fault_overhead",
            "prefetch_command_overhead",
            "prefetch_per_block",
            "recency_update_per_block",
            "discard_command_overhead",
            "lazy_dirty_clear_per_block",
            "transfer_retry_backoff",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"UvmDriverConfig.{name} must be >= 0, got {value}")
        if self.transfer_max_retries < 0:
            raise ValueError(
                "UvmDriverConfig.transfer_max_retries must be >= 0, got "
                f"{self.transfer_max_retries}"
            )
