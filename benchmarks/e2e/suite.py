"""Workload populations, seeded schedules, statistics, host-speed
calibration and reference digests.

Everything here is shared by ``run.py`` (the orchestrator), ``worker.py``
(one workload in a fresh process), ``make_reference.py`` and the
self-tests.  Point sets are fixed; a seed only permutes the order in
which a closed loop visits them and draws the ``serve-open`` request
stream and its due times.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("dl-train", "micro-oversub", "sweep-grid", "serve-open", "explain")

SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
LINKS = ("gen3", "gen4")

#: Scale of the Fig. 5-7 DL points (every DL population uses it).
DL_SCALE = 0.125
#: Oversubscription ratios and scale of the ``micro-oversub`` grid (and
#: of the micro part of ``sweep-grid``).  Ratio 1.0 is left out on
#: purpose: with it the 9 radix points above ratio 1.0 are 9.4% of the
#: items, so p90 sat on the edge between ~50 ms and ~140 ms points and
#: jumped by up to 70% between runs; at 12.5% it lies inside the radix
#: cluster.
MICRO_RATIOS = (1.5, 2.0, 3.0)
MICRO_SCALE = 0.25
#: The two driver variants every ``sweep-grid`` point is run under: the
#: default and the paper's no-discarded-queue ablation.  Both share
#: setup prefixes.  (``eviction_policy=fifo`` would be the natural
#: second variant, but ``UvmDriver.reconfigure`` does not re-apply it,
#: so a forked fifo point runs with its group leader's policy and fails
#: the reference check.)
SWEEP_VARIANTS = ((), (("discarded_queue_enabled", False),))
#: ``sweep-grid`` takes the Fig. 5 DL points on this link only, and its
#: micros at this ratio and scale: 150 points and 25 setup prefixes, each
#: shared by 3 systems x 2 variants.  The grid is this small so that at
#: least :data:`MIN_SWEEPS` whole sweeps fit in one run.
SWEEP_LINK = "gen3"
SWEEP_MICRO_RATIO = 2.0
SWEEP_MICRO_SCALE = 0.125
MIN_SWEEPS = 2
#: ``explain`` micros run at this ratio and scale.
EXPLAIN_RATIO = 2.0
EXPLAIN_MICRO_SCALE = 0.0625

#: ``serve-open``: 32 oversubscription ratios x two scales for new micro
#: points (so prefixes recur and fork), fast-mode paper micros at the
#: calibrated scale.
SERVE_RATIOS = tuple(1.0 + k / 16 for k in range(32))
SERVE_SCALES = (0.0625, 0.125)
SERVE_FAST_SCALE = 0.125
#: Nominal open-loop rate, then a x1.1 ladder of 1 s rungs (1 s, not
#: longer, keeps the whole serve-open run under 30 s).
SERVE_RATE = 30.0
LADDER_START = 33.0
LADDER_STEP = 1.1
LADDER_RUNG_SECONDS = 1.0
LADDER_MAX_RUNGS = 12
#: A rung passes when its p90 latency is at most this and nothing failed.
LADDER_P90_LIMIT_MS = 200.0
#: Request mix per block of 20: 8 repeats of already-issued points, 3
#: fast-mode paper micros and 9 new exact points.
MIX_BLOCK = ("repeat",) * 8 + ("fast",) * 3 + ("new",) * 9
#: New exact points per block of 5: 4 micros and 1 Fig. 5 DL point.
NEW_BLOCK = ("micro",) * 4 + ("dl",)


# ----------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------


def dl_points(driver: Sequence = ()) -> List:
    """The 102 Fig. 5-7 DL points: 4 networks x paper batch grids x 3
    systems x {gen3, gen4}."""
    from repro.harness.sweep import DL_BATCH_GRID, SweepPoint

    return [
        SweepPoint(
            workload=f"dl:{network}", system=system, link=link,
            batch_size=batch, scale=DL_SCALE, driver=driver,
        )
        for network, grid in DL_BATCH_GRID.items()
        for batch in grid
        for system in SYSTEMS
        for link in LINKS
    ]


def micro_points(
    ratios: Sequence[float], scale: float, driver: Sequence = (),
    workloads: Optional[Sequence[str]] = None, mode: str = "exact",
) -> List:
    """Every micro workload x 3 systems x ``ratios`` at ``scale``."""
    from repro.harness.sweep import MICRO_WORKLOADS, SweepPoint

    return [
        SweepPoint(
            workload=workload, system=system, ratio=ratio, scale=scale,
            driver=driver, mode=mode,
        )
        for workload in (workloads or MICRO_WORKLOADS)
        for system in SYSTEMS
        for ratio in ratios
    ]


def explain_points() -> List:
    """4 networks at their mid paper batch x 3 systems, plus the 8
    micros x 3 systems at ratio 2.0 (36 points)."""
    from repro.harness.sweep import DL_BATCH_GRID, SweepPoint

    points = [
        SweepPoint(
            workload=f"dl:{network}", system=system,
            batch_size=grid[len(grid) // 2], scale=DL_SCALE,
        )
        for network, grid in DL_BATCH_GRID.items()
        for system in SYSTEMS
    ]
    return points + micro_points((EXPLAIN_RATIO,), EXPLAIN_MICRO_SCALE)


def serve_populations() -> Dict[str, List]:
    """The ``serve-open`` point pools, by request kind."""
    from repro.harness.sweep import PAPER_MICRO_WORKLOADS

    micros = [
        point
        for scale in SERVE_SCALES
        for point in micro_points(SERVE_RATIOS, scale)
    ]
    fast = micro_points(
        SERVE_RATIOS, SERVE_FAST_SCALE,
        workloads=PAPER_MICRO_WORKLOADS, mode="fast",
    )
    return {"micro": micros, "dl": dl_points(), "fast": fast}


def population(workload: str) -> List:
    """The fixed point set a workload draws its items from."""
    if workload == "dl-train":
        return dl_points()
    if workload == "micro-oversub":
        return micro_points(MICRO_RATIOS, MICRO_SCALE)
    if workload == "sweep-grid":
        return [
            point
            for driver in SWEEP_VARIANTS
            for point in [p for p in dl_points(driver) if p.link == SWEEP_LINK]
            + micro_points((SWEEP_MICRO_RATIO,), SWEEP_MICRO_SCALE, driver)
        ]
    if workload == "explain":
        return explain_points()
    if workload == "serve-open":
        return [p for pool in serve_populations().values() for p in pool]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def pass_order(items: Sequence, seed: int, pass_index: int) -> List:
    """The seeded visiting order of one closed-loop pass."""
    order = list(items)
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# the serve-open schedule
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One scheduled ``/run`` request of the open loop."""

    due: float  # seconds after the phase starts
    kind: str  # "repeat" | "fast" | "new"
    point: Dict[str, object]


class RequestStream:
    """The seeded, timing-independent sequence of ``(kind, point)``.

    Kinds follow :data:`MIX_BLOCK` shuffled per block, new points follow
    :data:`NEW_BLOCK` with the micro workloads visited round-robin in a
    seeded order, so every seed sends the same mix.  Repeats redraw
    uniformly from what was already issued.  Each pool is consumed in
    one fixed (seed-independent) order, so a phase sends nearly the same
    point set under every seed and only the order differs; otherwise
    which heavy DL points a seed happens to draw would dominate the
    run-to-run spread of its latency percentiles.
    """

    def __init__(self, seed: int) -> None:
        fixed = random.Random("serve:pools")
        pools = serve_populations()
        self._micro: Dict[str, List[Dict[str, object]]] = {}
        for point in pools["micro"]:
            self._micro.setdefault(point.workload, []).append(point.to_dict())
        for pool in self._micro.values():
            fixed.shuffle(pool)
        self._dl = [p.to_dict() for p in pools["dl"]]
        self._fast = [p.to_dict() for p in pools["fast"]]
        fixed.shuffle(self._dl)
        fixed.shuffle(self._fast)
        self._rng = random.Random(f"serve:{seed}")
        self._issued: List[Dict[str, object]] = []
        self._kinds: List[str] = []
        self._news: List[str] = []
        self._workloads: List[str] = []

    def _refill(self, queue: List[str], block: Sequence[str]) -> str:
        if not queue:
            queue.extend(block)
            self._rng.shuffle(queue)
        return queue.pop()

    def _new_point(self) -> Dict[str, object]:
        if self._refill(self._news, NEW_BLOCK) == "dl" and self._dl:
            return self._dl.pop()
        if not self._workloads:
            self._workloads.extend(sorted(self._micro))
            self._rng.shuffle(self._workloads)
        return self._micro[self._workloads.pop()].pop()

    def __next__(self) -> Tuple[str, Dict[str, object]]:
        kind = self._refill(self._kinds, MIX_BLOCK)
        if kind == "repeat" and not self._issued:
            # Nothing to repeat yet: swap in a later kind of this block.
            later = next(i for i, k in enumerate(self._kinds) if k != "repeat")
            self._kinds[later], kind = kind, self._kinds[later]
        if kind == "repeat":
            return kind, self._rng.choice(self._issued)
        if kind == "fast" and self._fast:
            point = self._fast.pop()
        else:
            kind, point = "new", self._new_point()
        self._issued.append(point)
        return kind, point

    def __iter__(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        return self


def phase_requests(
    stream: RequestStream, seed: int, phase: str, rate: float, seconds: float
) -> List[Request]:
    """``round(rate x seconds)`` requests with seeded due times.

    Due times are sorted uniform draws over the phase: a Poisson arrival
    process conditioned on its count, so every seed offers exactly the
    nominal rate.
    """
    count = max(1, round(rate * seconds))
    rng = random.Random(f"due:{seed}:{phase}")
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return [Request(due, *next(stream)) for due in dues]


def ladder_rate(rung: int) -> float:
    return LADDER_START * LADDER_STEP ** rung


def serve_schedule(seed: int, seconds: float) -> Dict[str, object]:
    """The full ``serve-open`` schedule: the nominal phase, then every
    ladder rung the run may reach (it stops at the first failing rung)."""
    stream = RequestStream(seed)
    nominal = phase_requests(stream, seed, "nominal", SERVE_RATE, seconds)
    ladder = [
        phase_requests(
            stream, seed, f"rung{rung}", ladder_rate(rung), LADDER_RUNG_SECONDS
        )
        for rung in range(LADDER_MAX_RUNGS)
    ]
    return {"nominal": nominal, "ladder": ladder}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q`` percentile, refused (``ValueError``) unless at
    least ``min_beyond`` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1): {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def median_or_zero(samples: Sequence[float]) -> float:
    """The median, or 0 for a layer the workload never exercised."""
    return statistics.median(samples) if samples else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------

#: Iterations of :func:`calibration_sample`'s loop.
CALIBRATION_LOOPS = 60_000
#: Median wall seconds of one calibration sample on the reference host:
#: a 2-vCPU Intel Xeon VM, Python 3.11, in a quiet period (4.5-4.8 ms
#: measured).  Reported times are scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0045
#: A closed-loop item is scaled by the median of the calibration samples
#: taken after the items this many places before and after it.
CALIBRATION_HALF_WINDOW = 4
#: Pause between two samples of a :class:`CalibrationSampler`.
SAMPLER_PERIOD_S = 0.045


def calibration_sample(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds, on ``clock``, of a fixed pure-Python loop.

    The loop uses nothing from the ``repro`` package, so a change to the
    program cannot move it; only the host's speed does.  On a shared
    2-vCPU host each vCPU flips between about 1.1x and 1.6x the
    reference time every 0.1-1 s, and the simulator's own time moves
    with it (in one test, ten passes of the dl-train points spread by 14%
    unscaled and by 4.4% once each item was divided by neighbouring
    samples of this loop).
    """
    started = clock()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return clock() - started


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference host these calibration samples
    ran; a host time divided by it is a reference-host time."""
    return statistics.median(samples) / REFERENCE_CALIBRATION_S


def local_slowdowns(samples: Sequence[float]) -> List[float]:
    """:func:`slowdown` of each sample's window of neighbours, so that an
    item is scaled by the host's speed around the time it ran."""
    half = CALIBRATION_HALF_WINDOW
    return [
        slowdown(samples[max(0, i - half): i + half + 1])
        for i in range(len(samples))
    ]


class CalibrationSampler:
    """Calibration samples taken on a background thread while the
    workload's own processes run (``with CalibrationSampler() as s:``).

    The samples are timed in the thread's CPU time: the sampler shares
    the CPUs with busy workers, so its wall time would count the wait for
    a CPU, while its CPU time counts only how fast the host ran it.  One
    sample per :data:`SAMPLER_PERIOD_S` costs about a tenth of one vCPU.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLER_PERIOD_S):
            self.samples.append(calibration_sample(time.thread_time))

    def __enter__(self) -> "CalibrationSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(calibration_sample(time.thread_time))


# ----------------------------------------------------------------------
# reference digests
# ----------------------------------------------------------------------


def canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: object) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def point_key(point) -> str:
    """Reference key of a point (a :class:`SweepPoint` or its dict)."""
    data = point.to_dict() if hasattr(point, "to_dict") else point
    return digest(data)[:16]


def outcome_of(result) -> Dict[str, object]:
    """The served/cached outcome shape of an ``execute_point`` result."""
    if result is None:
        return {"status": "oom"}
    return {"status": "ok", "result": result.to_dict()}


class Reference:
    """Committed sha256 digests of every output a workload can produce."""

    def __init__(self, data: Dict[str, Dict[str, str]]) -> None:
        self.outcomes = data["outcomes"]
        self.explain = data["explain"]

    @classmethod
    def load(cls, path) -> "Reference":
        with open(path) as handle:
            return cls(json.load(handle))

    def check_outcome(self, point, outcome: object) -> bool:
        return self.outcomes.get(point_key(point)) == digest(outcome)

    def check_explain(self, point, report: object) -> bool:
        return self.explain.get(point_key(point)) == digest(report)
