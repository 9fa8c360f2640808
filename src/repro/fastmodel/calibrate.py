"""Fast-model calibration: pin the closed forms to simulator runs.

``python -m repro fastmodel calibrate`` (or running this module) runs
the discrete-event simulator over the default anchor grid — every fig5
DL workload across its full paper batch grid plus the three micro
workloads across the paper's oversubscription ratios, for all three UVM
systems — and writes the resulting :class:`~repro.fastmodel.model.
FastModel` to ``src/repro/fastmodel/calibration.json``.

Calibration is the only fast-model step that simulates; prediction
afterwards is pure arithmetic.  Anchors record the simulator's exact
results, so the committed file stays valid until simulator *semantics*
change — at which point ``python -m repro fastmodel validate`` (run on
every CI push) fails and tells you to regenerate.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Iterable, List, Optional

from repro.fastmodel.model import DEFAULT_CALIBRATION_PATH, FastModel

#: The paper's micro-workload oversubscription grid (Tables 3-8), plus
#: extra anchors: hashjoin's transfer-byte curve has a sharp knee
#: between 2x and 2.5x (the probe side of the join stops fitting), so
#: that region is anchored at 0.1x steps to keep piecewise-linear
#: interpolation inside the declared tolerance; the smooth tail gets
#: half-steps.
DEFAULT_RATIOS = (
    0.99, 1.5, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 3.0, 3.5, 4.0,
)

#: Systems the evaluation sweeps (No-UVM OOMs under oversubscription
#: and is not worth an anchor per point; add it explicitly if needed).
DEFAULT_SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")


def default_calibration_points(scale: float = 0.125) -> List["SweepPoint"]:
    """The default anchor grid: fig5 DL sweeps + micro ratio sweeps."""
    from repro.harness.sweep import (
        DL_BATCH_GRID,
        PAPER_MICRO_WORKLOADS,
        SweepPoint,
    )

    points: List[SweepPoint] = []
    for network, batches in sorted(DL_BATCH_GRID.items()):
        for system in DEFAULT_SYSTEMS:
            for batch_size in batches:
                points.append(
                    SweepPoint(
                        workload=f"dl:{network}",
                        system=system,
                        batch_size=batch_size,
                        scale=scale,
                    )
                )
    for workload in PAPER_MICRO_WORKLOADS:
        for system in DEFAULT_SYSTEMS:
            for ratio in DEFAULT_RATIOS:
                points.append(
                    SweepPoint(
                        workload=workload,
                        system=system,
                        ratio=ratio,
                        scale=scale,
                    )
                )
    return points


def calibrate(
    model: FastModel,
    points: Iterable["SweepPoint"],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> FastModel:
    """Run the simulator at every anchor point and record the results.

    ``points`` must be exact-mode points (a fast-mode point here would
    recurse into the model being calibrated); snapshot-prefix grouping
    and the worker pool make the batch cheap.
    """
    from repro.harness.sweep import run_sweep

    points = list(points)
    for point in points:
        if point.mode != "exact":
            raise ValueError(
                f"calibration needs exact-mode points, got {point.label}"
            )
    report = run_sweep(points, jobs=jobs, progress=progress)
    for point, result in report.rows():
        model.record(point, result)
    return model


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fastmodel calibrate",
        description="Calibrate the analytical fast model against the "
        "discrete-event simulator and write calibration.json.",
    )
    parser.add_argument(
        "--output",
        default=str(DEFAULT_CALIBRATION_PATH),
        help="calibration file to write (default: the committed one)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.125,
        help="workload scale factor of the anchor grid (default 0.125)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="simulator worker processes (default 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )
    args = parser.parse_args(argv)
    from repro.cli import _missing_directory, _write_text

    if _missing_directory(args.output):
        return 2
    model = FastModel()
    points = default_calibration_points(scale=args.scale)
    started = time.monotonic()
    calibrate(
        model,
        points,
        jobs=args.jobs,
        progress=None if args.quiet else print,
    )
    if not _write_text(args.output, model.to_json()):
        return 2
    print(
        f"calibrated {len(model.families)} families from {len(points)} "
        f"simulator runs in {time.monotonic() - started:.1f}s -> "
        f"{args.output}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
