"""Declarative experiment sweeps: grids, caching, parallel execution.

Every table and figure in the paper is a grid of independent simulation
points — (workload x system x link x oversubscription ratio / batch size
x driver config).  This module is the one engine that runs such grids:

- :class:`SweepPoint` names one cell declaratively (plain strings and
  numbers, picklable and JSON-able),
- :class:`SweepGrid` expands a compact grid spec into points,
- :func:`execute_point` runs one point to an
  :class:`~repro.harness.results.ExperimentResult` (or ``None`` when the
  configuration does not fit, e.g. No-UVM under oversubscription)
  through the one simulation pipeline (:mod:`repro.harness.pipeline`),
- :class:`ResultCache` memoizes finished points on disk, keyed by a
  stable content hash of the *full* point configuration, so re-running a
  sweep only simulates points whose inputs changed,
- :func:`run_sweep` drives a batch of points through a
  ``multiprocessing`` worker pool (each point is a CPU-bound
  deterministic simulation, so processes — not threads — scale it).

The CLI's ``sweep`` subcommand, the ``run``/``reproduce`` commands and
the ``benchmarks/`` figure regenerators all go through this API.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.snapshot import source_fingerprint
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.harness.pipeline import (
    GPU_FACTORIES,
    LINK_FACTORIES,
    build_prefix,
    plan_for,
    simulate,
)
from repro.harness.results import ExperimentResult
from repro.harness.runner import ratio_label
from repro.harness.systems import System

#: Environment variable overriding the default on-disk cache location.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: The paper's per-network batch-size grids (Figures 5/6/7, §7.5).
DL_BATCH_GRID: Dict[str, Tuple[int, ...]] = {
    "vgg16": (50, 75, 100, 125, 150),
    "darknet19": (86, 171, 260, 360),
    "resnet53": (28, 56, 100, 150),
    "rnn": (75, 150, 225, 300),
}

#: The paper's own micro-benchmarks (§7.2-7.4) — the calibrated set the
#: analytical fast model ships curves for.
PAPER_MICRO_WORKLOADS = ("fir", "radix", "hashjoin")

#: UVMBench-style workload categories (arXiv 2007.09822): irregular
#: graph traversal, random-access ML, HPC stencil and tree reduction.
#: Sweepable like the paper micros but NOT pre-calibrated — fast-model
#: queries refuse with :class:`~repro.fastmodel.UncalibratedPointError`
#: until a calibration covers them.
UVMBENCH_WORKLOADS = ("bfs", "kmeans", "knn", "stencil", "reduction")

#: Every ratio-configured (non-DL) workload the sweep engine accepts.
MICRO_WORKLOADS = PAPER_MICRO_WORKLOADS + UVMBENCH_WORKLOADS

LINK_NAMES = tuple(LINK_FACTORIES)
GPU_NAMES = tuple(GPU_FACTORIES)

_SYSTEM_VALUES = {s.value for s in System}
_SYSTEM_BY_NAME = {s.name: s.value for s in System}


def default_cache_dir() -> Path:
    """Where sweep results are cached (override: ``REPRO_SWEEP_CACHE``)."""
    return Path(os.environ.get(CACHE_ENV, ".repro_cache/sweeps"))


def _normalize_system(system: Union[System, str]) -> str:
    if isinstance(system, System):
        return system.value
    if system in _SYSTEM_VALUES:
        return system
    if system in _SYSTEM_BY_NAME:
        return _SYSTEM_BY_NAME[system]
    raise ConfigurationError(
        f"unknown system {system!r}; expected one of {sorted(_SYSTEM_VALUES)}"
    )


def _normalize_driver(
    driver: Union[Mapping[str, object], Sequence, None]
) -> Tuple[Tuple[str, object], ...]:
    if not driver:
        return ()
    items = driver.items() if isinstance(driver, Mapping) else driver
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class SweepPoint:
    """One cell of an experiment grid, as plain picklable data.

    ``workload`` is a micro-benchmark name (``fir``/``radix``/
    ``hashjoin``, configured by ``ratio``) or ``dl:<network>``
    (configured by ``batch_size``).  ``driver`` holds
    :class:`~repro.driver.config.UvmDriverConfig` field overrides.
    """

    workload: str
    system: str
    link: str = "gen4"
    ratio: float = 2.0
    batch_size: Optional[int] = None
    scale: float = 0.125
    gpu: str = "rtx3080ti"
    driver: Tuple[Tuple[str, object], ...] = ()
    #: DL-only override of the trainer's mini-batch count (``None`` =
    #: the :class:`~repro.workloads.dl.TrainerConfig` default).  Omitted
    #: from serialized dicts (and hence cache keys) when unset, so the
    #: field's introduction invalidates no existing cache entries.
    batches: Optional[int] = None
    #: Chaos-injection overrides (:class:`repro.chaos.ChaosConfig`
    #: fields), normalized like ``driver``.  Omitted from serialized
    #: dicts (and cache keys) when empty, so the field's introduction
    #: invalidates no existing cache entries.  Chaos applies to the
    #: measured body only — setup prefixes stay chaos-free — so chaos
    #: points share prefix snapshots with fault-free ones.
    chaos: Tuple[Tuple[str, object], ...] = ()
    #: ``"exact"`` simulates the point; ``"fast"`` answers it from the
    #: calibrated analytical model (:mod:`repro.fastmodel`) without
    #: simulating.  Serialized (and hashed into the cache key) only
    #: when not ``"exact"``, so exact keys are unchanged and fast
    #: results live in a disjoint cache namespace — the two can never
    #: alias each other in either direction.
    mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", _normalize_system(self.system))
        object.__setattr__(self, "driver", _normalize_driver(self.driver))
        object.__setattr__(self, "chaos", _normalize_driver(self.chaos))
        if self.mode not in ("exact", "fast"):
            raise ConfigurationError(
                f"mode must be 'exact' or 'fast', got {self.mode!r}"
            )
        if self.mode == "fast" and self.chaos:
            raise ConfigurationError(
                "chaos points cannot use the analytical fast model; "
                "fault injection needs the event-level simulator"
            )
        if self.chaos:
            if System(self.system) is System.NO_UVM:
                raise ConfigurationError(
                    "chaos injection requires a UVM system; No-UVM has no "
                    "fault-handling driver to perturb"
                )
            from repro.chaos.schedule import ChaosConfig

            try:
                ChaosConfig.from_items(self.chaos)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad chaos override: {exc}") from None
        if self.is_dl:
            network = self.workload.split(":", 1)[1]
            if network not in DL_BATCH_GRID:
                raise ConfigurationError(
                    f"unknown network {network!r}; expected one of "
                    f"{sorted(DL_BATCH_GRID)}"
                )
            if self.batch_size is None or self.batch_size < 1:
                raise ConfigurationError(
                    f"DL point {self.workload!r} needs a positive batch_size"
                )
            if self.batches is not None and self.batches < 2:
                raise ConfigurationError(
                    "batches must leave at least one measured batch after "
                    f"warm-up (>= 2), got {self.batches}"
                )
        elif self.workload in MICRO_WORKLOADS:
            if self.batch_size is not None:
                raise ConfigurationError(
                    f"micro workload {self.workload!r} takes a ratio, "
                    "not a batch_size"
                )
            if self.batches is not None:
                raise ConfigurationError(
                    f"micro workload {self.workload!r} has no batches knob"
                )
            if self.ratio <= 0:
                raise ConfigurationError(f"ratio must be positive: {self.ratio}")
        else:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{MICRO_WORKLOADS} or dl:<{'|'.join(sorted(DL_BATCH_GRID))}>"
            )
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive: {self.scale}")
        if self.link not in LINK_NAMES:
            raise ConfigurationError(
                f"unknown link {self.link!r}; expected one of {LINK_NAMES}"
            )
        if self.gpu not in GPU_NAMES:
            raise ConfigurationError(
                f"unknown gpu {self.gpu!r}; expected one of {GPU_NAMES}"
            )

    @property
    def is_dl(self) -> bool:
        return self.workload.startswith("dl:")

    @property
    def config_label(self) -> str:
        """The paper-style column label of this point."""
        if self.is_dl:
            return f"bs={self.batch_size}"
        return ratio_label(self.ratio)

    @property
    def label(self) -> str:
        """Human-readable one-line identity, for progress output."""
        return (
            f"{self.workload}/{self.system}/{self.link}/"
            f"{self.config_label}@x{self.scale:g}"
            f"{'+chaos' if self.chaos else ''}"
            f"{'+fast' if self.mode == 'fast' else ''}"
        )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "workload": self.workload,
            "system": self.system,
            "link": self.link,
            "ratio": self.ratio,
            "batch_size": self.batch_size,
            "scale": self.scale,
            "gpu": self.gpu,
            "driver": dict(self.driver),
        }
        if self.batches is not None:
            data["batches"] = self.batches
        if self.chaos:
            data["chaos"] = dict(self.chaos)
        if self.mode != "exact":
            data["mode"] = self.mode
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepPoint":
        unknown = set(data) - {
            "workload", "system", "link", "ratio", "batch_size",
            "scale", "gpu", "driver", "batches", "chaos", "mode",
        }
        if unknown:
            raise ConfigurationError(f"unknown sweep-point keys: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]

    def cache_key(self) -> str:
        """Stable content hash of the full point configuration and of the
        simulator source (:func:`~repro.engine.snapshot.source_fingerprint`)
        that computes it."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        payload = f"{source_fingerprint()}\x00{canonical}"
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class SweepGrid:
    """A declarative grid that expands to the cartesian set of points.

    ``batch_sizes=None`` means each DL workload uses its paper grid
    (:data:`DL_BATCH_GRID`); micro workloads always use ``ratios``.
    """

    workloads: Sequence[str]
    systems: Sequence[str] = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
    links: Sequence[str] = ("gen4",)
    ratios: Sequence[float] = (2.0,)
    batch_sizes: Optional[Sequence[int]] = None
    scale: float = 0.125
    gpus: Sequence[str] = ("rtx3080ti",)
    driver: Mapping[str, object] = field(default_factory=dict)

    def expand(self) -> List[SweepPoint]:
        """All points, ordered workload-major then link, system, config."""
        if not self.workloads:
            raise ConfigurationError("a sweep grid needs at least one workload")
        for workload in self.workloads:
            if not isinstance(workload, str):
                raise ConfigurationError(
                    f"workloads must be strings, got {workload!r}"
                )
        points: List[SweepPoint] = []
        for workload in self.workloads:
            for gpu in self.gpus:
                for link in self.links:
                    for system in self.systems:
                        for point in self._configs(workload, gpu, link, system):
                            points.append(point)
        return points

    def _configs(
        self, workload: str, gpu: str, link: str, system: str
    ) -> Iterable[SweepPoint]:
        common = dict(
            workload=workload, system=system, link=link,
            scale=self.scale, gpu=gpu, driver=dict(self.driver),
        )
        if workload.startswith("dl:"):
            batches = self.batch_sizes
            if batches is None:
                batches = DL_BATCH_GRID[workload.split(":", 1)[1]]
            for batch in batches:
                yield SweepPoint(batch_size=batch, **common)
        else:
            for ratio in self.ratios:
                yield SweepPoint(ratio=ratio, **common)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepGrid":
        unknown = set(data) - {
            "workloads", "systems", "links", "ratios", "batch_sizes",
            "scale", "gpus", "driver",
        }
        if unknown:
            raise ConfigurationError(f"unknown sweep-grid keys: {sorted(unknown)}")
        if "workloads" not in data:
            raise ConfigurationError("grid spec must name 'workloads'")
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "SweepGrid":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid grid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("grid spec must be a JSON object")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# point execution
# ----------------------------------------------------------------------


def execute_point(point: SweepPoint) -> Optional[ExperimentResult]:
    """Resolve one point; ``None`` when the configuration does not fit
    (the paper's No-UVM OOM crash under oversubscription).

    ``mode="exact"`` simulates; ``mode="fast"`` answers from the
    calibrated analytical model without simulating (raising
    :class:`~repro.fastmodel.FastModelError` when no calibration
    covers the point).
    """
    if point.mode == "fast":
        from repro.fastmodel import predict_point

        return predict_point(point)
    return simulate(plan_for(point))[0]


# ----------------------------------------------------------------------
# shared-prefix group execution (snapshot/fork reuse)
# ----------------------------------------------------------------------

#: Driver-config fields that influence the *setup* prefix (CPU faults
#: during host initialization, the transfer records that keep them, and
#: the page-table implementation, fixed when the prefix builds its
#: tables).  Two points may share one prefix snapshot only when these
#: agree; every other knob is setup-inert and is re-applied per fork via
#: :meth:`~repro.driver.driver.UvmDriver.reconfigure`.
SETUP_AFFECTING_DRIVER_KEYS = frozenset(
    {
        "cpu_fault_overhead",
        "keep_transfer_records",
        "vectorized",
    }
)


def prefix_key(point: SweepPoint) -> Optional[Tuple]:
    """Grouping key for points that can share one setup-prefix snapshot,
    or ``None`` when the point must run cold.

    ``None`` cases: fast-mode points (nothing to simulate) and No-UVM
    (its one program has no shareable setup).  The key deliberately
    excludes ``system`` (all UVM systems share the same CPU-only
    setup), ``ratio`` (the oversubscription occupant is reserved after
    forking and costs no simulated time), and ``chaos`` (the injector
    installs per fork, after the shared prefix — setup is always
    simulated fault-free).
    """
    if point.mode == "fast":
        # Analytical points never simulate, so there is no prefix to
        # share; keeping them out also steers the serve workers onto
        # the plain execute_point dispatch.
        return None
    if System(point.system) is System.NO_UVM:
        return None
    setup_overrides = tuple(
        (k, v)
        for k, v in point.driver
        if k in SETUP_AFFECTING_DRIVER_KEYS
    )
    return (
        point.workload,
        point.link,
        point.scale,
        point.gpu,
        point.batch_size,
        point.batches,
        setup_overrides,
    )


def execute_group(
    points: Sequence[SweepPoint],
    blob_store=None,
) -> List[Optional[ExperimentResult]]:
    """Simulate a group of points sharing one :func:`prefix_key`.

    The shared setup prefix is simulated once, snapshotted at its
    quiescent boundary, and forked per point; each fork re-applies the
    point's full driver config and runs the measured body.  Forked runs
    are bit-for-bit identical to cold ones (``tests/test_snapshot_fork``
    pins that down), so this is purely a wall-clock optimization.  Any
    failure to establish the snapshot degrades to cold per-point runs.

    ``blob_store`` (a :class:`~repro.engine.snapshot.BlobStore`) widens
    the reuse scope: the snapshot is resolved through the store before
    it is built, so sweep workers on one host share each prefix build
    instead of repeating it.  With a store, even a single-point group
    forks from the shared snapshot (that is the whole point of
    splitting groups across workers).
    """
    from repro.engine.snapshot import resolve_prefix_snapshot

    points = list(points)
    key = prefix_key(points[0]) if points else None
    if key is None or len(points) < (1 if blob_store is not None else 2):
        return [execute_point(point) for point in points]
    plans = [plan_for(point) for point in points]

    def build():
        try:
            return build_prefix(plans[0])
        except OutOfMemoryError:
            return None

    snapshot, _origin = resolve_prefix_snapshot(key, build, store=blob_store)
    if snapshot is None:
        return [execute_point(point) for point in points]
    # Each fork re-applies its point's full driver config and installs
    # its own instruments after the shared prefix (see simulate).
    return [simulate(plan, snapshot)[0] for plan in plans]


def outcome_to_dict(result: Optional[ExperimentResult]) -> Dict[str, object]:
    """The JSON outcome the cache stores and the server returns."""
    if result is None:
        return {"status": "oom"}
    return {"status": "ok", "result": result.to_dict()}


def outcome_from_dict(outcome: object) -> Optional[ExperimentResult]:
    """Decode a stored outcome; raises on any corrupt/foreign shape."""
    if not isinstance(outcome, dict):
        raise ValueError(f"outcome is not an object: {outcome!r}")
    status = outcome.get("status")
    if status == "oom":
        return None
    if status != "ok":
        raise ValueError(f"unknown outcome status: {status!r}")
    return ExperimentResult.from_dict(outcome["result"])


def _pool_group_worker(
    item: Tuple[
        Tuple[int, ...], Tuple[Dict[str, object], ...], Optional[str]
    ]
) -> List[Tuple[int, Dict[str, object]]]:
    """Top-level (picklable) worker: simulate one prefix-sharing group
    (or one chunk of a split group) in a subprocess.  Only plain dicts
    and the blob-store path cross the process boundary — snapshots are
    resolved through the shared blob store inside the worker, so each
    prefix is built once per host."""
    indices, point_dicts, store_dir = item
    points = [SweepPoint.from_dict(d) for d in point_dicts]
    store = None
    if store_dir is not None:
        from repro.engine.snapshot import BlobStore

        store = BlobStore(store_dir)
    outcomes = [
        outcome_to_dict(result)
        for result in execute_group(points, blob_store=store)
    ]
    return list(zip(indices, outcomes))


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------


#: Distinguishes concurrent writers' temp files within one process; the
#: pid alone is not enough once the experiment server's thread pool and
#: the sweep's process pool share a cache root.
_TMP_COUNTER = itertools.count()


class ResultCache:
    """Content-addressed on-disk store of finished sweep points.

    Entries live at ``<root>/<key[:2]>/<key>.json``; a key is the
    sha256 of the point's canonical JSON plus the simulator's source
    fingerprint, so *any* input change — workload, system, link, ratio,
    batch, scale, GPU, driver override, or a line of simulator code —
    misses and re-simulates.  Unreadable or corrupt entries are treated
    as misses, never errors.

    The store is safe under concurrent readers and writers from any mix
    of threads and processes (the experiment server hammers it from
    both): each writer stages to a uniquely-named temp file (pid +
    thread id + counter) and publishes with the atomic ``os.replace``,
    so a reader observes either the old complete entry or the new one,
    never a partial write.  Reads retry briefly on transient
    ``OSError`` and fall back to a miss.  Concurrent writers of the
    same key are idempotent — both write the identical deterministic
    outcome — so last-replace-wins is correct.
    """

    #: Read attempts before treating a transient error as a miss.
    READ_RETRIES = 3

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, point: SweepPoint, key: Optional[str] = None) -> Path:
        # The sha256 over canonical JSON is the expensive part of a cache
        # probe; callers that already hold the key pass it to avoid
        # hashing the same point two or three times per lookup.
        if key is None:
            key = point.cache_key()
        return self.root / key[:2] / f"{key}.json"

    def get(self, point: SweepPoint) -> Optional[Dict[str, object]]:
        """The stored outcome dict, or ``None`` on miss/corruption."""
        key = point.cache_key()
        path = self.path_for(point, key)
        payload = None
        for attempt in range(self.READ_RETRIES):
            try:
                payload = json.loads(path.read_text())
                break
            except FileNotFoundError:
                return None
            except (OSError, ValueError):
                # A transient read failure (e.g. replace-in-progress on a
                # filesystem without atomic rename semantics); back off
                # briefly, then treat as a miss.
                if attempt + 1 < self.READ_RETRIES:
                    time.sleep(0.005 * (attempt + 1))
        if payload is None:
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("key") != key:
            return None
        outcome = payload.get("outcome")
        try:
            outcome_from_dict(outcome)
        except (KeyError, TypeError, ValueError):
            return None
        return outcome  # type: ignore[return-value]

    def put(self, point: SweepPoint, outcome: Dict[str, object]) -> None:
        """Atomically persist one outcome (write temp file, then rename).

        The temp name is unique per (process, thread, call) so two
        concurrent writers — even threads sharing a pid — never
        interleave bytes in one staging file.
        """
        key = point.cache_key()
        path = self.path_for(point, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "point": point.to_dict(),
            "outcome": outcome,
        }
        tmp = path.with_suffix(
            f".tmp-{os.getpid()}-{threading.get_ident()}-{next(_TMP_COUNTER)}"
        )
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError:
            # Cache writes are best-effort; never fail the simulation.
            try:
                tmp.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# the sweep runner
# ----------------------------------------------------------------------


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned, aligned index-for-index."""

    points: List[SweepPoint]
    results: List[Optional[ExperimentResult]]
    #: Per-point provenance: ``"cache"`` or ``"run"``.
    provenance: List[str]
    wall_seconds: float
    #: Host-wide blob-store stats when the sweep shared prefix builds
    #: across worker processes (entries/bytes/builds_total/
    #: builds_distinct — see :meth:`BlobStore.stats`); ``None`` when the
    #: sweep ran without a shared store.
    blob_stats: Optional[Dict[str, object]] = None

    @property
    def cached(self) -> int:
        return sum(1 for p in self.provenance if p == "cache")

    @property
    def simulated(self) -> int:
        return sum(1 for p in self.provenance if p == "run")

    def rows(self) -> List[Tuple[SweepPoint, Optional[ExperimentResult]]]:
        return list(zip(self.points, self.results))

    def to_json(self) -> str:
        """Canonical serialization of (point, outcome) pairs.

        Independent of execution order, job count and cache state — two
        reports over the same points compare byte-for-byte equal exactly
        when every simulated value matches.
        """
        return json.dumps(
            [
                {"point": point.to_dict(), "outcome": outcome_to_dict(result)}
                for point, result in self.rows()
            ],
            sort_keys=True,
            indent=1,
        )


def run_sweep(
    points: Union[SweepGrid, Iterable[SweepPoint]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    snapshot_reuse: bool = True,
    blob_store_dir: Optional[Union[str, Path]] = None,
) -> SweepReport:
    """Execute a batch of sweep points, using the cache and worker pool.

    ``jobs > 1`` simulates cache misses across a process pool; hits are
    served inline.  Results are returned in point order regardless of
    completion order, so output is deterministic for any job count.

    ``snapshot_reuse`` groups cache-missing points by
    :func:`prefix_key`, simulates each group's shared setup prefix
    once, and forks the remaining points from a snapshot (see
    :func:`execute_group`).  Reports are byte-identical with the knob
    on or off; ``False`` forces every point to run cold.

    With ``jobs > 1``, multi-point prefix groups are additionally
    *split across workers* and their snapshots shared through a
    host-wide :class:`~repro.engine.snapshot.BlobStore` (serialize-once
    transport): each distinct prefix is built by exactly one worker
    process and every other worker forks from the published blob.
    Chunks are dispatched prefix-affine — one leader chunk per prefix
    first, follower chunks after — so followers land when their blob
    is already hot.  ``blob_store_dir`` names a persistent store
    directory; by default a per-sweep temporary directory is used and
    removed afterwards.
    """
    if isinstance(points, SweepGrid):
        points = points.expand()
    points = list(points)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1: {jobs}")
    started = time.monotonic()
    total = len(points)
    results: List[Optional[ExperimentResult]] = [None] * total
    provenance: List[str] = ["run"] * total
    done = 0

    def note(index: int, source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            point = points[index]
            if source == "cache":
                suffix = "cached"
            elif point.mode == "fast":
                suffix = "predicted"
            else:
                suffix = "simulated"
            progress(f"[{done}/{total}] {suffix} {point.label}")

    pending: List[int] = []
    for index, point in enumerate(points):
        outcome = cache.get(point) if cache is not None else None
        if outcome is not None:
            results[index] = outcome_from_dict(outcome)
            provenance[index] = "cache"
            note(index, "cache")
        else:
            pending.append(index)

    def finish(index: int, outcome: Dict[str, object]) -> None:
        results[index] = outcome_from_dict(outcome)
        if cache is not None:
            cache.put(points[index], outcome)
        note(index, "run")

    # Analytical fast-mode points resolve in microseconds; answer them
    # inline instead of shipping them through the worker pool.
    simulated_pending: List[int] = []
    for index in pending:
        if points[index].mode == "fast":
            finish(index, outcome_to_dict(execute_point(points[index])))
        else:
            simulated_pending.append(index)
    pending = simulated_pending

    # Partition the misses into prefix-sharing groups.  Ungroupable
    # points (prefix_key None) and singleton groups run cold; each group
    # is one unit of pool work so its snapshot never crosses a process
    # boundary.
    groups: List[List[int]] = []
    if snapshot_reuse:
        keyed: Dict[Tuple, List[int]] = {}
        solo: List[int] = []
        for index in pending:
            key = prefix_key(points[index])
            if key is None:
                solo.append(index)
            else:
                keyed.setdefault(key, []).append(index)
        for members in keyed.values():
            if len(members) > 1:
                groups.append(members)
            else:
                solo.extend(members)
        groups.extend([index] for index in solo)
    else:
        groups = [[index] for index in pending]

    # With several jobs, split multi-point groups into per-worker chunks
    # that share the prefix through a host-wide blob store instead of
    # serializing the whole group onto one worker.  Chunks are ordered
    # leaders-first (chunk rank 0 of every prefix, then rank 1, ...):
    # imap dispatches in list order, so each prefix's single builder
    # starts before its followers and the followers fork a hot blob.
    units: List[List[int]] = groups
    store_dir: Optional[str] = None
    store_cleanup = None
    if jobs > 1 and any(len(members) > 1 for members in groups):
        if blob_store_dir:
            store_dir = str(blob_store_dir)
        else:
            import tempfile

            store_cleanup = tempfile.TemporaryDirectory(prefix="repro-blobs-")
            store_dir = store_cleanup.name
        ranked: List[Tuple[int, List[int]]] = []
        for members in groups:
            parts = min(jobs, len(members)) if len(members) > 1 else 1
            for rank in range(parts):
                ranked.append((rank, members[rank::parts]))
        ranked.sort(key=lambda item: item[0])
        units = [chunk for _, chunk in ranked]

    blob_stats: Optional[Dict[str, object]] = None
    try:
        if len(units) > 1 and jobs > 1:
            work = [
                (
                    tuple(members),
                    tuple(points[index].to_dict() for index in members),
                    store_dir,
                )
                for members in units
            ]
            with multiprocessing.Pool(processes=min(jobs, len(units))) as pool:
                for batch in pool.imap_unordered(_pool_group_worker, work):
                    for index, outcome in batch:
                        finish(index, outcome)
        else:
            for members in units:
                if len(members) == 1:
                    index = members[0]
                    finish(
                        index, outcome_to_dict(execute_point(points[index]))
                    )
                else:
                    group_results = execute_group([points[i] for i in members])
                    for index, result in zip(members, group_results):
                        finish(index, outcome_to_dict(result))
        if store_dir is not None:
            from repro.engine.snapshot import BlobStore

            blob_stats = BlobStore(store_dir).stats()
    finally:
        if store_cleanup is not None:
            store_cleanup.cleanup()

    return SweepReport(
        points,
        results,
        provenance,
        time.monotonic() - started,
        blob_stats=blob_stats,
    )
