"""Regenerate ``reference.json``: digests of every output a workload can produce.

Every point of every population (the whole ``serve-open`` pool
included, so any seed can be checked) is simulated cold, and every
``explain`` report is built; the file maps a point key to the sha256 of
the canonical JSON of its outcome (``{"status": "ok", "result":
ExperimentResult.to_dict()}`` or ``{"status": "oom"}``) or report.
Regenerate only when a change is meant to alter simulated results::

    PYTHONPATH=src python benchmarks/e2e/make_reference.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402


def unique_points():
    seen = {}
    for workload in suite.WORKLOADS:
        if workload == "explain":
            continue
        for point in suite.population(workload):
            seen.setdefault(suite.point_key(point), point)
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)

    from repro.analysis import explain_point
    from repro.harness.sweep import run_sweep

    started = time.perf_counter()
    points = unique_points()
    report = run_sweep(list(points.values()), jobs=args.jobs, snapshot_reuse=False)
    outcomes = {
        suite.point_key(point): suite.digest(suite.outcome_of(result))
        for point, result in report.rows()
    }
    explain = {
        suite.point_key(point): suite.digest(explain_point(point))
        for point in suite.explain_points()
    }
    data = {"outcomes": dict(sorted(outcomes.items())), "explain": dict(sorted(explain.items()))}
    Path(args.out).write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(
        f"{len(outcomes)} outcomes, {len(explain)} explain reports "
        f"in {time.perf_counter() - started:.1f}s -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
