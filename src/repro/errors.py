"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` from
CPython itself) from simulated-system failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class SnapshotError(SimulationError):
    """A snapshot was requested in a state that cannot be captured.

    Snapshots are only legal at *quiescence* — an empty event heap with
    every process finished — because live generator frames cannot be
    pickled.  Raised by :mod:`repro.engine.snapshot` and by
    :meth:`~repro.engine.core.Process.__getstate__`.
    """


class OutOfMemoryError(ReproError):
    """A physical memory allocation could not be satisfied.

    Raised by the frame allocators when a processor's memory is exhausted
    and no eviction is possible (e.g. the No-UVM baseline exceeding GPU
    capacity, which the paper's Listing 4 notes "will not work").
    """


class InvalidAddressError(ReproError):
    """An operation referenced a virtual address outside any allocation."""


class MappingError(ReproError):
    """A page-table mapping operation was inconsistent.

    Examples: mapping a VA that is already mapped on another processor
    without first unmapping it, or unmapping a VA that holds no PTE.
    """


class StreamError(ReproError):
    """A CUDA-stream ordering or synchronization rule was violated."""


class DiscardSemanticsError(ReproError):
    """The program violated the discard directive's contract.

    The primary case is the ``UvmDiscardLazy`` misuse described in §5.2 of
    the paper: re-purposing a lazily-discarded region without the mandatory
    prefetch notification, which lets the driver reclaim pages that hold
    new values.
    """


class DataCorruptionError(ReproError):
    """The data oracle observed a read returning a value the §4.1 semantics
    do not permit (neither zeros, nor a previously written value, nor the
    latest write after the last discard)."""


class ConfigurationError(ReproError):
    """An experiment or device was configured with inconsistent parameters."""


class TransferError(SimulationError):
    """A DMA command failed more times than the driver's retry budget.

    Raised by the migration engine when injected transient transfer
    faults (see :meth:`repro.interconnect.link.Link.inject_transfer_fault`)
    outlast ``UvmDriverConfig.transfer_max_retries``.
    """


class InvariantViolationError(SimulationError):
    """The online validation layer observed an inconsistent driver state.

    Raised (in strict mode) or recorded (otherwise) by
    :class:`repro.chaos.OnlineValidator`; carries the first violated
    invariant's description.
    """
