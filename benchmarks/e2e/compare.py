"""A/B comparison: this tree's benchmark against another revision's ``src``.

    python3 benchmarks/e2e/compare.py --against HEAD~1
    python3 benchmarks/e2e/compare.py --against main --workloads dl-train,explain --pairs 12

The ``src`` tree of ``--against`` is exported with ``git archive`` into
``benchmarks/e2e/out/``; the benchmark code is this tree's for both
sides, so only the program differs.  Pairs alternate which side runs
first, and pair ``i`` uses seed ``--seed + i`` on both sides.  For each
workload and end-to-end metric it prints each side's median and
quartiles, the change's win fraction (ties count for neither) and a
verdict:

- ``gain``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
- ``no worse``: the change's median is within the metric's bound;
- ``regression``: worse than the bound, with the parent's spread
  inside the bound;
- ``unresolved``: the parent's spread is wider than the bound, and not
  every change run beats every parent run.

Exits 1 on a regression or on any run that failed its reference check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402
from suite import quartiles  # noqa: E402


def export_src(rev: str) -> Path:
    """``rev``'s ``src`` tree, extracted under ``benchmarks/e2e/out/``."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest = OUT / f"against-{sha[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", sha, "src"],
        cwd=ROOT, stdout=subprocess.PIPE,
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} src failed")
    return dest / "src"


def run_once(workload: str, seed: int, src: Path) -> Dict[str, object]:
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0",
            "--src", str(src), "--out", str(OUT / "compare-last.json"),
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = process.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} on {src} printed no result:\n{process.stderr[-2000:]}")
    return json.loads(lines[-1])


def cell(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = quartiles(base)
    _, c2, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    spread = b3 - b1
    if wins >= 0.9 * len(base) and sign * (c2 - b2) > spread:
        return "gain"
    wide = spread / b2 > bound
    if sign * (b2 - c2) / b2 > bound:
        return "unresolved" if wide else "regression"
    if wide and not all(sign * (c - b) > 0 for c in change for b in base):
        return "unresolved"
    return "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--against", required=True, help="git revision of the parent")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    base_src = export_src(args.against)
    sides = {"base": base_src, "change": ROOT / "src"}
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    broken = 0
    try:
        for workload in workloads:
            values[workload] = {side: {} for side in sides}
            for pair in range(args.pairs):
                order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
                for side in order:
                    result = run_once(workload, args.seed + pair, sides[side])
                    broken += 0 if result["correct"] else 1
                    for name, metric in result["metrics"].items():
                        values[workload][side].setdefault(name, []).append(metric["value"])
    finally:
        shutil.rmtree(base_src.parent, ignore_errors=True)

    regressions = 0
    print(f"{'workload':14} {'metric':15} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = values[workload]["base"][name]
            change = values[workload]["change"][name]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
            call = verdict(base, change, metric["better"], metric["bound"])
            regressions += call == "regression"
            print(
                f"{workload:14} {name:15} {cell(quartiles(base)):>32} "
                f"{cell(quartiles(change)):>32} {wins:>3}/{len(base):<3} {call}"
            )
    if broken:
        print(f"{broken} runs failed their reference check", file=sys.stderr)
    return 1 if regressions or broken else 0


if __name__ == "__main__":
    sys.exit(main())
