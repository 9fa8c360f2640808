"""End-to-end benchmark of the UVM-discard simulator stack.

Five workloads, each run in fresh Python processes so set-up time and
memory belong to that workload alone::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0              # all five
    python3 benchmarks/e2e/run.py --workload dl-train --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace out/trace          # per-layer run

Each workload measures for ``run_seconds`` of ``BENCHMARK.json``.
Every end-to-end metric is printed as ``workload metric value unit
(n=samples)``; every output is checked against ``reference.json`` and a
mismatch counts as a failure and makes the exit code 1.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics with ``--trace``).
A results file with provenance goes to ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from suite import WORKLOADS, calibration_sample, slowdown  # noqa: E402

#: Processes started per workload to take the median set-up time.
SETUP_RUNS = 5
#: Calibration samples taken before each of them.
SETUP_CALIBRATION = 20
#: Wall budget of one workload, set-up probes included.
WORKLOAD_DEADLINE = 170.0

#: Printed beside the ``BENCHMARK.json`` metrics by the workloads that
#: report them.
EXTRA_UNITS = {
    "fail_frac": "ratio", "max_rate_rps": "req/s", "host_slowdown": "x",
    "cpu_share": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(
    command: List[str], env: Dict[str, str], log: Path, deadline: float
) -> Tuple[float, Optional[Dict[str, object]]]:
    """Run one worker; returns (seconds until READY, its JSON payload)."""
    started = time.perf_counter()
    lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()
    with open(log, "a") as stderr:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            cwd=ROOT,
        )

        def pump() -> None:
            for line in process.stdout:
                lines.put((time.perf_counter(), line.rstrip("\n")))
            lines.put((time.perf_counter(), None))

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        ready: Optional[float] = None
        payload: Optional[Dict[str, object]] = None
        try:
            while True:
                remaining = deadline - time.monotonic()
                try:
                    stamp, line = lines.get(timeout=max(0.1, remaining))
                except queue.Empty:
                    raise WorkerError("worker exceeded its time budget") from None
                if line is None:
                    break
                if line == "READY" and ready is None:
                    ready = stamp - started
                elif line.startswith("{"):
                    payload = json.loads(line)
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            reader.join(timeout=5)
    if code != 0 or ready is None:
        tail = log.read_text()[-2000:] if log.exists() else ""
        raise WorkerError(f"worker exited with {code}:\n{tail}")
    return ready, payload


def timed_spawn(
    command: List[str], env: Dict[str, str], log: Path, deadline: float
) -> Tuple[float, Optional[Dict[str, object]]]:
    """:func:`spawn`, with the seconds until READY scaled to the
    reference host by calibration samples taken just before it."""
    scale = slowdown([calibration_sample() for _ in range(SETUP_CALIBRATION)])
    ready, payload = spawn(command, env, log, deadline)
    return ready / scale, payload


def run_workload(
    workload: str, args, src: Path, work: Path, trace_dir: Optional[Path]
) -> Dict[str, object]:
    deadline = time.monotonic() + WORKLOAD_DEADLINE
    work = work / workload
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Workers keep a bytecode cache under out/, as Python does by default,
    # so set-up time measures imports rather than recompiling every
    # module in every process.
    env = dict(
        os.environ, PYTHONPATH=str(src), TMPDIR=str(work / "tmp"),
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work),
    ]
    log = work / "worker.err"
    setups: List[float] = []
    if trace_dir is None:
        for _ in range(SETUP_RUNS - 1):
            setups.append(timed_spawn(command + ["--setup-only"], env, log, deadline)[0])
    else:
        command += ["--trace-dir", str(trace_dir)]
    ready, payload = timed_spawn(command, env, log, deadline)
    if payload is None:
        raise WorkerError(f"{workload}: worker printed no result")
    setups.append(ready)
    payload["setup_s"] = (statistics.median(setups), len(setups))
    return payload


def provenance(args, src: Path, counts: Dict[str, int]) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "unavailable"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": rev,
        "src": str(src),
        "samples": counts,
        "argv": sys.argv[1:],
    }


def end_to_end(payload: Dict[str, object]) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for every end-to-end metric."""
    tally = payload["tally"]
    metrics = {
        name: tuple(value) for name, value in payload["metrics"].items()
        if name != "passes"
    }
    metrics["setup_s"] = tuple(payload["setup_s"])
    metrics["peak_rss_mb"] = (payload["peak_rss_mb"], 1)
    metrics["fail_frac"] = (
        tally["failed"] / max(1, tally["attempted"]), tally["attempted"]
    )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="accepted only as run_seconds of BENCHMARK.json, "
                        "which fixes the run length")
    parser.add_argument("--trace", default="0",
                        help="0 = untraced end-to-end run; 1 or a directory = "
                        "one traced pass per workload, per-layer metrics "
                        "(1 writes to benchmarks/e2e/out/trace)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src tree to benchmark (default: this checkout's)")
    parser.add_argument("--out", help="results JSON path (default: benchmarks/e2e/out/)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds not in (None, spec["run_seconds"]):
        parser.error(f"--seconds must be run_seconds of BENCHMARK.json ({spec['run_seconds']})")
    args.seconds = spec["run_seconds"]

    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}", file=sys.stderr)
        return 2
    traced = args.trace != "0"
    trace_dir = None
    if traced:
        trace_dir = (OUT / "trace") if args.trace == "1" else Path(args.trace).resolve()
        trace_dir.mkdir(parents=True, exist_ok=True)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    results: Dict[str, Dict[str, object]] = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args, src, work, trace_dir)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    final: Dict[str, Dict[str, object]] = {}
    counts: Dict[str, int] = {}
    for workload, payload in results.items():
        tally = payload["tally"]
        attempted += tally["attempted"]
        failed += tally["failed"]
        counts[workload] = tally["attempted"]
        for error in tally["errors"]:
            print(f"{workload}: {error}", file=sys.stderr)
        if traced:
            metrics = {name: (value, 1) for name, value in payload["layers"].items()}
            all_units = units
        else:
            metrics = end_to_end(payload)
            all_units = {**units, **EXTRA_UNITS}
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"{workload}: missing metrics {missing}", file=sys.stderr)
            return 1
        for name, (value, n) in metrics.items():
            if name in all_units:
                print(f"{workload} {name} {value:.6g} {all_units[name]} (n={n})")
        prefix = "" if args.workload else f"{workload}/"
        for name in units:
            final[prefix + name] = {"value": metrics[name][0], "unit": units[name]}

    record = {"provenance": provenance(args, src, counts), "workloads": results}
    if traced:
        for workload, payload in results.items():
            layers = {"provenance": record["provenance"], **payload}
            (trace_dir / f"{workload}.layers.json").write_text(
                json.dumps(layers, indent=1, sort_keys=True)
            )
    label = args.workload or "all"
    out = Path(args.out) if args.out else OUT / (
        f"results-{label}-seed{args.seed}{'-trace' if traced else ''}.json"
    )
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": final,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
