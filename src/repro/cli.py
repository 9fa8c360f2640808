"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — enumerate the reproducible experiments,
- ``run <experiment>`` — run one experiment and print its paper-style
  table (``--scale``, ``--link``, ``--csv`` options),
- ``reproduce`` — run every experiment and write a markdown report,
- ``sweep`` — expand a declarative grid of (workload, system, link,
  ratio/batch) points, execute it across a worker pool with on-disk
  result caching, and print a summary table,
- ``fastmodel`` — calibrate the analytical fast model or validate it
  against fresh simulator runs,
- ``chaos`` — the deterministic fault-injection suite: every workload
  runs fault-free and twice under the same chaos seed with online
  invariant validation, asserting byte-identical outputs and a
  reproducible event trace (see ``docs/VALIDATION.md``),
- ``trace`` — run one experiment point with the simulated-time tracer
  installed and export a Perfetto-loadable Chrome trace plus an
  optional metrics time-series CSV (see ``docs/OBSERVABILITY.md``),
- ``explain`` — attribute a point's bytes to buffers, phases and
  waste causes, list missed discard opportunities, and diff two
  reports,
- ``replay`` — run an access trace (a ``trace`` export, or replay
  JSON/CSV) as a workload and check its recorded totals,
- ``serve`` — the long-running simulation-as-a-service frontend: a
  JSON-over-HTTP API with content-hash dedup, a shared blob store of
  setup-prefix snapshots, backpressure and per-client rate limits (see
  ``docs/SERVING.md``),
- ``loadgen`` — replay a seeded mix of concurrent requests against a
  running server and report p50/p99 latency plus dedup/blob hit rates,
- ``demo`` — the VectorAdd quickstart with verified results.

The heavyweight regeneration of *every* table and figure lives in
``pytest benchmarks/ --benchmark-only``; the CLI is the fast,
exploratory front end.  ``run``, ``reproduce`` and ``sweep`` all execute
through the same :mod:`repro.harness.sweep` engine.  The simulator's own
speed is measured by ``benchmarks/e2e`` (see ``docs/PERFORMANCE.md``),
not by a command here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.harness.results import ExperimentResult, ResultTable
from repro.harness.runner import ratio_label
from repro.harness.sweep import (
    CACHE_ENV,
    DL_BATCH_GRID,
    MICRO_WORKLOADS,
    ResultCache,
    SweepGrid,
    SweepPoint,
    default_cache_dir,
    run_sweep,
)
from repro.harness.systems import System
from repro.instrument.report import results_to_csv, sweep_summary_table

RATIOS = (0.99, 2.0, 3.0, 4.0)
MICRO_SYSTEMS = (System.UVM_OPT, System.UVM_DISCARD, System.UVM_DISCARD_LAZY)
DL_DISPLAY_NAMES = {
    "vgg16": "VGG-16",
    "darknet19": "Darknet-19",
    "resnet53": "ResNet-53",
    "rnn": "RNN",
}

EXPERIMENTS = {
    "fir": "FIR sliding-window filter (Tables 3/4)",
    "radix": "Radix-sort with irregular access (Tables 5/6)",
    "hashjoin": "GPU database hash-join (Tables 7/8)",
    "bfs": "BFS graph traversal, UVMBench-style (docs/WORKLOADS.md)",
    "kmeans": "k-means clustering, UVMBench-style (docs/WORKLOADS.md)",
    "knn": "k-nearest-neighbor search, UVMBench-style (docs/WORKLOADS.md)",
    "stencil": "2D Jacobi stencil, UVMBench-style (docs/WORKLOADS.md)",
    "reduction": "Tree reduction, UVMBench-style (docs/WORKLOADS.md)",
    "dl:vgg16": "VGG-16 training sweep (Figures 5/6/7)",
    "dl:darknet19": "Darknet-19 training sweep (Figures 5/6/7)",
    "dl:resnet53": "ResNet-53 training sweep (Figures 3/5/6/7)",
    "dl:rnn": "Character-RNN training sweep (Figures 5/6/7)",
}


def _write_trace_json(path: str, payload: dict) -> bool:
    """Write a trace dict deterministically (sorted keys, compact);
    False, after one stderr line, when the write fails."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _write_text(path, text + "\n")


def _missing_directory(*paths) -> bool:
    """True, after one stderr line, when the directory of an output path
    does not exist: commands check their output paths before any work.
    Unset paths (``None`` or empty) are skipped."""
    for path in map(pathlib.Path, filter(None, paths)):
        if not path.parent.is_dir():
            print(
                f"cannot write {path}: no directory {path.parent}",
                file=sys.stderr,
            )
            return True
    return False


def _write_text(path, text: str) -> bool:
    """Write ``text`` to ``path`` (a string or a path); False, after one
    stderr line, when the write fails."""
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _execute_points(
    points: List[SweepPoint], trace: Optional[str]
) -> List[ExperimentResult]:
    """Run experiment points — via the sweep engine, or individually
    traced (merged into one multi-process trace file) when ``trace``.
    A trace that cannot be written ends the command with exit 2."""
    if trace is None:
        report = run_sweep(points)
        return [result for result in report.results if result is not None]
    from repro.harness.tracerun import trace_point
    from repro.instrument.trace import merge_chrome_traces

    results: List[ExperimentResult] = []
    traced = []
    for point in points:
        result, tracer = trace_point(point)
        if result is not None:
            results.append(result)
        traced.append((point.label, tracer))
    if not _write_trace_json(trace, merge_chrome_traces(traced)):
        raise SystemExit(2)
    print(f"wrote merged trace of {len(traced)} points to {trace}")
    return results


def _run_micro(
    kind: str, scale: float, link_name: str, trace: Optional[str] = None,
    fast: bool = False,
) -> List[ExperimentResult]:
    points = [
        SweepPoint(
            workload=kind, system=system.value, link=link_name,
            ratio=ratio, scale=scale, mode="fast" if fast else "exact",
        )
        for ratio in RATIOS
        for system in MICRO_SYSTEMS
    ]
    results = _execute_points(points, trace)
    table = ResultTable(kind, [ratio_label(r) for r in RATIOS])
    for result in results:
        table.add(result)
    print(table.render("normalized_runtime", baseline=System.UVM_OPT.value))
    print()
    print(table.render("traffic_gb"))
    return results


def _run_dl(
    network: str, scale: float, link_name: str, trace: Optional[str] = None,
    fast: bool = False,
) -> List[ExperimentResult]:
    batches = DL_BATCH_GRID[network]
    points = [
        SweepPoint(
            workload=f"dl:{network}", system=system.value, link=link_name,
            batch_size=batch, scale=scale, mode="fast" if fast else "exact",
        )
        for batch in batches
        for system in MICRO_SYSTEMS
    ]
    results = _execute_points(points, trace)
    table = ResultTable(DL_DISPLAY_NAMES[network], [f"bs={b}" for b in batches])
    for result in results:
        table.add(result)
    print(table.render("metric", fmt="{:.1f}"))
    print()
    print(table.render("traffic_gb"))
    return results


def cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def cmd_run(args) -> int:
    name = args.experiment
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    fast = getattr(args, "fast", False)
    if fast and args.trace:
        print(
            "--fast and --trace are incompatible: the analytical model "
            "simulates no events to trace",
            file=sys.stderr,
        )
        return 2
    # Refuse before simulating, not after.
    if _missing_directory(args.csv, args.trace):
        return 2
    from repro.fastmodel import FastModelError

    try:
        if name.startswith("dl:"):
            results = _run_dl(
                name.split(":", 1)[1], args.scale, args.link, args.trace,
                fast=fast,
            )
        else:
            results = _run_micro(
                name, args.scale, args.link, args.trace, fast=fast
            )
    except FastModelError as exc:
        print(f"fast model unavailable: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        if not _write_text(args.csv, results_to_csv(results)):
            return 2
        print(f"\nwrote {len(results)} rows to {args.csv}")
    return 0


def cmd_reproduce(args) -> int:
    """Run every experiment at a fast scale; write one markdown report."""
    from repro.instrument.report import results_to_markdown, speedup_summary

    if _missing_directory(args.output):
        return 2
    sections = []
    for name in EXPERIMENTS:
        print(f"== {name}")
        if name.startswith("dl:"):
            results = _run_dl(name.split(":", 1)[1], args.scale, args.link)
        else:
            results = _run_micro(name, args.scale, args.link)
        sections.append(
            results_to_markdown(results, title=f"{name} — {EXPERIMENTS[name]}")
        )
        summary = speedup_summary(results, System.UVM_OPT.value)
        if summary:
            sections.append("```\n" + summary + "\n```")
        print()
    report = "# UVM Discard reproduction report\n\n" + "\n\n".join(sections) + "\n"
    if not _write_text(args.output, report):
        return 2
    print(f"wrote {args.output}")
    return 0


def _split(text: Optional[str]) -> List[str]:
    if not text:
        return []
    return [item.strip() for item in text.split(",") if item.strip()]


def cmd_sweep(args) -> int:
    try:
        if args.grid:
            grid = SweepGrid.from_json(pathlib.Path(args.grid).read_text())
        else:
            workloads = _split(args.workloads)
            if not workloads:
                print(
                    "sweep needs --grid FILE or --workloads a,b,c",
                    file=sys.stderr,
                )
                return 2
            batches = _split(args.batches)
            grid = SweepGrid(
                workloads=workloads,
                systems=_split(args.systems),
                links=_split(args.links),
                ratios=[float(r) for r in _split(args.ratios)],
                batch_sizes=[int(b) for b in batches] if batches else None,
                scale=args.scale,
            )
        points = grid.expand()
        if getattr(args, "fast", False):
            points = [
                dataclasses.replace(point, mode="fast") for point in points
            ]
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1: {args.jobs}")
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2
    if _missing_directory(args.csv):
        return 2
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    where = "off" if cache is None else str(cache.root)
    print(f"{len(points)} points, jobs={args.jobs}, cache={where}")
    from repro.fastmodel import FastModelError

    try:
        report = run_sweep(
            points,
            jobs=args.jobs,
            cache=cache,
            progress=print,
            snapshot_reuse=not args.no_snapshot_reuse,
            blob_store_dir=args.blob_store,
        )
    except FastModelError as exc:
        print(f"fast model unavailable: {exc}", file=sys.stderr)
        return 2
    print()
    print(sweep_summary_table([(p.label, r) for p, r in report.rows()]))
    print(
        f"\n{report.simulated} simulated, {report.cached} cached, "
        f"{report.wall_seconds:.2f} s wall"
    )
    if report.blob_stats:
        stats = report.blob_stats
        print(
            f"blob store: {stats['builds_distinct']} distinct prefixes, "
            f"{stats['builds_total']} builds, {stats['bytes']} bytes shared"
        )
    if args.csv:
        rows = [result for result in report.results if result is not None]
        if not _write_text(args.csv, results_to_csv(rows)):
            return 2
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def cmd_fastmodel(args) -> int:
    """Calibrate/validate the analytical fast model; see docs/PERFORMANCE.md."""
    if args.action == "calibrate":
        from repro.fastmodel.calibrate import main
    else:
        from repro.fastmodel.validate import main
    return main(args.rest)


def cmd_chaos(args) -> int:
    """Run the deterministic fault-injection suite; see docs/VALIDATION.md."""
    from repro.chaos import ChaosConfig, run_chaos_suite
    from repro.chaos.runner import CHAOS_WORKLOADS

    try:
        if args.cadence < 1:
            raise ConfigurationError(
                f"--cadence must be >= 1, got {args.cadence}"
            )
        workloads = _split(args.workloads) or None
        if workloads:
            unknown = sorted(set(workloads) - set(CHAOS_WORKLOADS))
            if unknown:
                raise ConfigurationError(
                    f"unknown chaos workloads {unknown}; "
                    f"have {list(CHAOS_WORKLOADS)}"
                )
        overrides = {}
        for item in _split(args.set):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"--set wants key=value pairs, got {item!r}"
                )
            overrides[key.strip()] = float(value) if "." in value else int(value)
        if overrides:
            overrides.setdefault("seed", args.seed)
            config = ChaosConfig.from_items(tuple(overrides.items()))
        else:
            config = ChaosConfig.default_storm(seed=args.seed)
    except (ConfigurationError, TypeError, ValueError) as exc:
        print(f"bad chaos spec: {exc}", file=sys.stderr)
        return 2
    if _missing_directory(args.trace):
        return 2
    trace_config = None
    if args.trace:
        from repro.instrument.trace import TraceConfig

        trace_config = TraceConfig()
    report = run_chaos_suite(
        seed=args.seed,
        workloads=workloads,
        cadence=args.cadence,
        config=config,
        strict=args.strict,
        trace_config=trace_config,
    )
    for line in report.summary_lines():
        print(line)
    if args.counters:
        for result in report.results:
            active = {k: v for k, v in sorted(result.counters.items()) if v}
            print(f"{result.workload}: {active}")
    if args.trace:
        from repro.instrument.trace import merge_chrome_traces

        traced = [
            (result.workload, result.chaos_tracer)
            for result in report.results
            if result.chaos_tracer is not None
        ]
        if not _write_trace_json(args.trace, merge_chrome_traces(traced)):
            return 2
        print(f"wrote merged chaos trace of {len(traced)} workloads to {args.trace}")
    return 0 if report.ok else 1


#: ``trace`` accepts the paper's figure names as experiment aliases.
TRACE_ALIASES = {f"fig5-{net}": f"dl:{net}" for net in DL_BATCH_GRID}


def cmd_trace(args) -> int:
    """Trace one experiment point; see docs/OBSERVABILITY.md."""
    from repro.instrument.report import phase_breakdown_table
    from repro.instrument.trace import TraceConfig, validate_chrome_trace

    if args.validate:
        try:
            data = json.loads(pathlib.Path(args.validate).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.validate}: {exc}", file=sys.stderr)
            return 2
        problems = validate_chrome_trace(data)
        if problems:
            for problem in problems[:25]:
                print(problem, file=sys.stderr)
            print(
                f"{args.validate}: INVALID ({len(problems)} problems)",
                file=sys.stderr,
            )
            return 1
        count = len(data.get("traceEvents", []))
        print(f"{args.validate}: valid Chrome trace ({count} events)")
        return 0
    if not args.experiment:
        print("trace needs an experiment name (or --validate FILE)", file=sys.stderr)
        return 2
    name = TRACE_ALIASES.get(args.experiment, args.experiment)
    if name not in EXPERIMENTS:
        known = ", ".join([*EXPERIMENTS, *TRACE_ALIASES])
        print(f"unknown experiment {args.experiment!r}; have {known}", file=sys.stderr)
        return 2
    from repro.harness.tracerun import trace_point

    out = pathlib.Path(args.out)
    metrics_csv = pathlib.Path(args.metrics_csv) if args.metrics_csv else None
    # Refuse before simulating, not after.
    if _missing_directory(out, metrics_csv):
        return 2
    try:
        system = System(args.system)
        if system is System.NO_UVM:
            raise ConfigurationError("No-UVM has no driver to trace")
        if name.startswith("dl:"):
            network = name.split(":", 1)[1]
            # Default to the grid's most oversubscribed batch: the
            # richest timeline (faults, evictions, discards, revivals).
            batch = args.batch or DL_BATCH_GRID[network][-1]
            point = SweepPoint(
                workload=name, system=system.value, link=args.link,
                batch_size=batch, scale=args.scale,
            )
        else:
            point = SweepPoint(
                workload=name, system=system.value, link=args.link,
                ratio=args.ratio, scale=args.scale,
            )
        config = TraceConfig(metrics_cadence=args.cadence)
        result, tracer = trace_point(point, config)
    except (ConfigurationError, ValueError) as exc:
        print(f"bad trace spec: {exc}", file=sys.stderr)
        return 2
    # Write both artifacts before any summary printing, so a closed
    # stdout (e.g. piping into head) can never truncate the outputs.
    if not _write_text(out, tracer.to_json() + "\n"):
        return 2
    if metrics_csv is not None and not _write_text(
        metrics_csv, tracer.metrics.to_csv()
    ):
        return 2
    spans = sum(1 for record in tracer.events if record[0] == "X")
    instants = len(tracer.events) - spans
    print(
        f"wrote {args.out}: {spans} spans, {instants} instants, "
        f"{tracer.dropped} dropped trace records"
    )
    print(f"trace_digest: {tracer.digest()}")
    if result is None:
        print(f"{point.label}: OOM — configuration does not fit")
    else:
        print(
            f"{point.label}: {result.elapsed_seconds:.6f} s simulated, "
            f"{result.traffic_gb:.3f} GB traffic"
        )
        print()
        print(
            phase_breakdown_table(
                tracer.phase_seconds(),
                result.elapsed_seconds,
                title="phase breakdown (simulated seconds; tracks overlap)",
            )
        )
    if args.metrics_csv:
        print(f"wrote metrics time-series to {args.metrics_csv}")
    return 0


def cmd_explain(args) -> int:
    """Byte attribution, waste analysis and discard-opportunity reports;
    see the "Attribution & waste analysis" section of
    docs/OBSERVABILITY.md."""
    from repro.analysis.explain import (
        check_discard_inference,
        diff_reports,
        explain_point,
        render_check,
        render_diff,
        render_report,
    )

    if args.diff:
        path_a, path_b = args.diff
        try:
            report_a = json.loads(pathlib.Path(path_a).read_text())
            report_b = json.loads(pathlib.Path(path_b).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot load diff inputs: {exc}", file=sys.stderr)
            return 2
        diff = diff_reports(report_a, report_b)
        print(json.dumps(diff, indent=2) if args.json else render_diff(diff))
        return 0
    if not args.experiment:
        print(
            "explain needs an experiment name (or --diff A B)",
            file=sys.stderr,
        )
        return 2
    name = TRACE_ALIASES.get(args.experiment, args.experiment)
    if name not in EXPERIMENTS:
        known = ", ".join([*EXPERIMENTS, *TRACE_ALIASES])
        print(
            f"unknown experiment {args.experiment!r}; have {known}",
            file=sys.stderr,
        )
        return 2

    def point_for(system_name: str) -> SweepPoint:
        if name.startswith("dl:"):
            network = name.split(":", 1)[1]
            batch = args.batch or DL_BATCH_GRID[network][-1]
            return SweepPoint(
                workload=name, system=system_name, link=args.link,
                batch_size=batch, scale=args.scale,
            )
        return SweepPoint(
            workload=name, system=system_name, link=args.link,
            ratio=args.ratio, scale=args.scale,
        )

    try:
        system = System(args.system)
        if system is System.NO_UVM:
            raise ConfigurationError("No-UVM has no driver to explain")
        if args.check:
            # Verify inferred discards against the hand-placed ones:
            # trace the discard-free baseline, infer, replay, and demand
            # byte-equal savings with the hand-discard run.
            check_system = (
                System.UVM_DISCARD if system is System.UVM_OPT else system
            )
            check = check_discard_inference(
                point_for(System.UVM_OPT.value),
                point_for(check_system.value),
                check_system.value,
            )
            if args.json:
                print(json.dumps(check, indent=2))
            else:
                print(render_check(check, name))
            return 0 if check["ok"] else 1
        out = pathlib.Path(args.out) if args.out else None
        # Refuse before simulating, not after.
        if _missing_directory(out):
            return 2
        report = explain_point(point_for(system.value))
        if out is not None and not _write_text(
            out, json.dumps(report, indent=2) + "\n"
        ):
            return 2
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_report(report))
        if args.out and not args.json:
            print(f"\nwrote report to {args.out}")
        return 0
    except (ConfigurationError, ValueError) as exc:
        print(f"bad explain spec: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 2


def cmd_replay(args) -> int:
    """Replay an access trace as a workload; see docs/WORKLOADS.md."""
    from repro.workloads.replay import (
        check_replay,
        load_replay_trace,
        per_buffer_transfer_totals,
        replay_trace_to_csv,
        run_replay,
    )

    out = pathlib.Path(args.convert) if args.convert else None
    # Refuse before converting, not after.
    if _missing_directory(out):
        return 2
    try:
        trace = load_replay_trace(args.trace)
    except (ReproError, OSError) as exc:
        print(f"cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2
    if out is not None:
        if out.suffix == ".csv":
            text = replay_trace_to_csv(trace)
        else:
            text = trace.to_json() + "\n"
        if not _write_text(out, text):
            return 2
        print(
            f"wrote replay trace ({len(trace.buffers)} buffers, "
            f"{len(trace.ops)} ops) to {out}"
        )
        return 0
    keep_records = args.per_buffer
    try:
        result, runtime = run_replay(trace, keep_transfer_records=keep_records)
    except ReproError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    check = check_replay(trace, runtime)
    if args.json:
        payload = {
            "meta": {k: v for k, v in trace.meta.items() if k != "expected"},
            "ops": len(trace.ops),
            "elapsed_seconds": result.elapsed_seconds,
            "check": check,
        }
        if keep_records:
            payload["per_buffer"] = per_buffer_transfer_totals(runtime)
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        meta = trace.meta
        print(
            f"replayed {meta.get('workload', '?')}/{meta.get('system', '?')} "
            f"({len(trace.ops)} ops): {result.elapsed_seconds:.6f} s simulated"
        )
        actual = check["actual"]
        print(
            f"traffic: h2d={actual['bytes_h2d']} d2h={actual['bytes_d2h']} "
            f"transfers={actual['transfer_count']}"
        )
        if keep_records:
            for name, bucket in sorted(per_buffer_transfer_totals(runtime).items()):
                print(f"  {name}: h2d={bucket['h2d']} d2h={bucket['d2h']}")
        if check["checked"]:
            verdict = "MATCH" if check["ok"] else "MISMATCH"
            print(f"recorded totals: {verdict}")
            if not check["ok"]:
                print(f"  expected: {check['expected']}")
                print(f"  actual:   {check['actual']}")
    if args.check and not check["checked"]:
        print("--check: trace carries no expected totals", file=sys.stderr)
        return 2
    return 0 if (check["ok"] or not args.check) else 1


def cmd_serve(args) -> int:
    """Run the experiment server; see docs/SERVING.md."""
    from repro.serve.server import ServeConfig, serve_forever

    try:
        cache_dir: Optional[pathlib.Path] = None
        if not args.no_cache:
            cache_dir = pathlib.Path(args.cache_dir or default_cache_dir())
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            executor=args.executor,
            blob_dir=pathlib.Path(args.blob_dir) if args.blob_dir else None,
            queue_limit=args.queue_limit,
            rate=args.rate,
            burst=args.burst,
            cache_dir=cache_dir,
            drain_seconds=args.drain_seconds,
        )
        config.validate()
    except (ConfigurationError, ValueError) as exc:
        print(f"bad serve spec: {exc}", file=sys.stderr)
        return 2
    try:
        return serve_forever(config)
    except OSError as exc:
        print(f"cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2


def cmd_loadgen(args) -> int:
    """Drive a running server with concurrent load; see docs/SERVING.md."""
    from repro.serve.loadgen import run_load

    if _missing_directory(args.report):
        return 2
    try:
        report = run_load(
            args.url,
            requests=args.requests,
            clients=args.clients,
            duplicate_fraction=args.duplicates,
            seed=args.seed,
            scale=args.scale,
            timeout=args.timeout,
            verify_identity=args.verify_identity,
        )
    except (OSError, ValueError) as exc:
        print(f"load run failed: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.report:
        text = json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
        if not _write_text(args.report, text):
            return 2
        print(f"wrote {args.report}")
    ok = report.failed == 0 and report.identity_mismatches == 0
    return 0 if ok else 1


def cmd_demo(_args) -> int:
    import numpy as np

    from repro.cuda.runtime import CudaRuntime
    from repro.workloads.vector_add import uvm_vector_add

    n = 1024 * 1024
    runtime = CudaRuntime()
    out = {}

    def program(cuda):
        out["result"] = yield from uvm_vector_add(
            cuda, n, reuse_with_discard="eager"
        )

    runtime.run(program)
    expected = np.arange(n, dtype=np.float32) + 4.0
    ok = np.allclose(out["result"], expected)
    stats = runtime.stats()
    print(
        f"VectorAdd with discard+reuse: result {'OK' if ok else 'WRONG'}, "
        f"{stats['traffic_gb'] * 1e3:.1f} MB of traffic in "
        f"{stats['elapsed_seconds'] * 1e3:.2f} ms simulated"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UVM Discard reproduction (IISWC 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see 'list')")
    run.add_argument(
        "--scale",
        type=float,
        default=0.125,
        help="workload/GPU scale factor (1.0 = paper scale)",
    )
    run.add_argument(
        "--link", default="gen4", choices=("gen3", "gen4"), help="PCIe generation"
    )
    run.add_argument("--csv", help="also write raw rows to this CSV file")
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="trace every point and write one merged Chrome trace "
        "(bypasses the sweep cache)",
    )
    run.add_argument(
        "--fast",
        action="store_true",
        help="answer from the calibrated analytical model instead of "
        "simulating (see docs/PERFORMANCE.md, 'two-speed mode')",
    )
    run.set_defaults(func=cmd_run)

    reproduce = sub.add_parser(
        "reproduce", help="run every experiment and write a markdown report"
    )
    reproduce.add_argument("--scale", type=float, default=0.0625)
    reproduce.add_argument(
        "--link", default="gen4", choices=("gen3", "gen4")
    )
    reproduce.add_argument(
        "--output", default="reproduction_report.md", help="report path"
    )
    reproduce.set_defaults(func=cmd_reproduce)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative grid of points with caching and workers",
    )
    sweep.add_argument(
        "--grid", help="JSON grid-spec file (see docs/SWEEPS.md)"
    )
    sweep.add_argument(
        "--workloads",
        help="comma list: "
        + ",".join(MICRO_WORKLOADS)
        + ","
        + ",".join(f"dl:{network}" for network in sorted(DL_BATCH_GRID)),
    )
    sweep.add_argument(
        "--systems",
        default="UVM-opt,UvmDiscard,UvmDiscardLazy",
        help="comma list of evaluated systems",
    )
    sweep.add_argument("--links", default="gen4", help="comma list: gen3,gen4")
    sweep.add_argument(
        "--ratios",
        default="2.0",
        help="comma list of oversubscription ratios (micro workloads)",
    )
    sweep.add_argument(
        "--batches",
        help="comma list of DL batch sizes (default: each network's "
        "paper grid)",
    )
    sweep.add_argument("--scale", type=float, default=0.125)
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes for cache misses"
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="always re-simulate"
    )
    sweep.add_argument(
        "--no-snapshot-reuse",
        action="store_true",
        help="run every point cold instead of forking shared setup "
        "prefixes from a snapshot (results are identical either way)",
    )
    sweep.add_argument(
        "--cache-dir",
        help=f"cache root (default .repro_cache/sweeps, or ${CACHE_ENV})",
    )
    sweep.add_argument(
        "--blob-store",
        metavar="DIR",
        help="shared snapshot blob-store directory for multi-job sweeps "
        "(default: a temporary directory); a named directory persists "
        "builds.log for build-count auditing",
    )
    sweep.add_argument("--csv", help="also write raw rows to this CSV file")
    sweep.add_argument(
        "--fast",
        action="store_true",
        help="answer every point from the calibrated analytical model "
        "instead of simulating; fast results are cached under their "
        "own keys and never alias exact ones",
    )
    sweep.set_defaults(func=cmd_sweep)

    fastmodel = sub.add_parser(
        "fastmodel",
        help="calibrate or differentially validate the analytical "
        "fast model (mode='fast')",
    )
    fastmodel.add_argument(
        "action",
        choices=("calibrate", "validate"),
        help="calibrate: pin the model to simulator runs; validate: "
        "check predictions against fresh simulator runs",
    )
    fastmodel.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments for the action (try 'fastmodel validate -- --help')",
    )
    fastmodel.set_defaults(func=cmd_fastmodel)

    chaos = sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection suite with online "
        "invariant validation",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="master chaos seed (default 0)"
    )
    from repro.chaos.catalog import CHAOS_WORKLOADS as _CHAOS_WORKLOADS

    chaos.add_argument(
        "--workloads",
        help="comma list: "
        + ",".join(_CHAOS_WORKLOADS)
        + f" (default all {len(_CHAOS_WORKLOADS)})",
    )
    chaos.add_argument(
        "--cadence",
        type=int,
        default=32,
        help="engine events between online invariant checks (default 32)",
    )
    chaos.add_argument(
        "--strict",
        action="store_true",
        help="abort at the first invariant violation instead of recording",
    )
    chaos.add_argument(
        "--set",
        help="comma list of ChaosConfig key=value overrides "
        "(replaces the default storm preset)",
    )
    chaos.add_argument(
        "--counters",
        action="store_true",
        help="also print each workload's nonzero chaos counters",
    )
    chaos.add_argument(
        "--trace",
        metavar="PATH",
        help="also trace the chaos runs and write one merged Chrome trace",
    )
    chaos.set_defaults(func=cmd_chaos)

    trace = sub.add_parser(
        "trace",
        help="run one experiment point with the simulated-time tracer "
        "and export a Perfetto-loadable Chrome trace",
    )
    trace.add_argument(
        "experiment",
        nargs="?",
        help="experiment name (see 'list'; fig5-<net> aliases dl:<net>)",
    )
    trace.add_argument(
        "--system",
        default=System.UVM_DISCARD.value,
        help="system under trace (default UvmDiscard)",
    )
    trace.add_argument(
        "--ratio",
        type=float,
        default=2.0,
        help="oversubscription ratio for micro workloads (default 2.0)",
    )
    trace.add_argument(
        "--batch",
        type=int,
        help="DL batch size (default: the network grid's largest, i.e. "
        "most oversubscribed, batch)",
    )
    trace.add_argument("--scale", type=float, default=0.125)
    trace.add_argument(
        "--link", default="gen4", choices=("gen3", "gen4")
    )
    trace.add_argument(
        "--out", default="trace.json", help="Chrome trace output path"
    )
    trace.add_argument(
        "--metrics-csv",
        metavar="PATH",
        help="also dump the sampled metrics time series as CSV",
    )
    trace.add_argument(
        "--cadence",
        type=int,
        default=256,
        help="engine events between metric samples; 0 disables (default 256)",
    )
    trace.add_argument(
        "--validate",
        metavar="FILE",
        help="validate an existing trace file instead of running",
    )
    trace.set_defaults(func=cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="post-run byte attribution: waste decomposition, missed "
        "discard opportunities, and run-to-run diffs",
    )
    explain.add_argument(
        "experiment",
        nargs="?",
        help="experiment name (see 'list'; fig5-<net> aliases dl:<net>)",
    )
    explain.add_argument(
        "--system",
        default=System.UVM_OPT.value,
        help="system to explain (default UVM-opt, the discard-free "
        "baseline with the most to say)",
    )
    explain.add_argument(
        "--ratio",
        type=float,
        default=2.0,
        help="oversubscription ratio for micro workloads (default 2.0)",
    )
    explain.add_argument(
        "--batch",
        type=int,
        help="DL batch size (default: the network grid's largest batch)",
    )
    explain.add_argument("--scale", type=float, default=0.125)
    explain.add_argument(
        "--link", default="gen4", choices=("gen3", "gen4")
    )
    explain.add_argument(
        "--check",
        action="store_true",
        help="verify inferred discards against the hand-placed ones "
        "(byte-exact savings); exits non-zero on mismatch",
    )
    explain.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        help="diff two saved explain reports (JSON files from --out)",
    )
    explain.add_argument(
        "--out", metavar="PATH", help="also save the JSON report to PATH"
    )
    explain.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    explain.set_defaults(func=cmd_explain)

    replay = sub.add_parser(
        "replay",
        help="replay an access trace (a 'trace' export, or replay "
        "JSON/CSV — see docs/WORKLOADS.md) as a workload",
    )
    replay.add_argument(
        "trace",
        help="trace file: a Chrome export from 'repro trace', or a "
        "replay-schema JSON/CSV document",
    )
    replay.add_argument(
        "--convert",
        metavar="OUT",
        help="convert to a standalone replay trace (.csv for the CSV "
        "form, JSON otherwise) instead of running",
    )
    replay.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the replayed migration totals match "
        "the totals recorded in the trace",
    )
    replay.add_argument(
        "--per-buffer",
        action="store_true",
        help="keep per-transfer records and print per-buffer H2D/D2H totals",
    )
    replay.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    replay.set_defaults(func=cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service experiment server "
        "(JSON-over-HTTP, shared prefix snapshots, result-cache dedup)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8731,
        help="TCP port (0 = ephemeral; the chosen port is printed)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="simulation workers in the executor (default 2)",
    )
    serve.add_argument(
        "--executor",
        default="process",
        choices=("process", "thread"),
        help="process executor for true parallelism (default), or the "
        "thread executor (one process; tests/CI)",
    )
    serve.add_argument(
        "--blob-dir",
        help="blob-store directory of serialized setup-prefix snapshots "
        "shared by the workers (default: a per-server temporary "
        "directory, removed at shutdown)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="max outstanding (queued + running) points before /run "
        "answers 429 (default 256)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="per-client token-bucket refill rate in requests/second "
        "(default 0 = unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=20.0,
        help="per-client token-bucket burst capacity (default 20)",
    )
    serve.add_argument(
        "--cache-dir",
        help=f"result-cache root (default .repro_cache/sweeps, or ${CACHE_ENV})",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (in-flight coalescing stays on)",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="graceful-shutdown budget for in-flight requests (default 10)",
    )
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay concurrent requests against a running server and "
        "report latency/dedup/blob statistics",
    )
    loadgen.add_argument("--url", required=True, help="server base URL")
    loadgen.add_argument(
        "--requests", type=int, default=100, help="total requests (default 100)"
    )
    loadgen.add_argument(
        "--clients", type=int, default=8, help="concurrent clients (default 8)"
    )
    loadgen.add_argument(
        "--duplicates",
        type=float,
        default=0.5,
        help="fraction of requests drawn as duplicates (default 0.5)",
    )
    loadgen.add_argument(
        "--scale", type=float, default=0.03125, help="workload scale factor"
    )
    loadgen.add_argument(
        "--seed", type=int, default=0, help="schedule seed (default 0)"
    )
    loadgen.add_argument(
        "--timeout", type=float, default=120.0, help="per-request timeout"
    )
    loadgen.add_argument(
        "--verify-identity",
        type=int,
        default=0,
        help="re-simulate this many served points locally and compare "
        "byte-for-byte (slow; default 0)",
    )
    loadgen.add_argument(
        "--report", metavar="PATH", help="write the full JSON report here"
    )
    loadgen.set_defaults(func=cmd_loadgen)

    sub.add_parser("demo", help="run the VectorAdd demo").set_defaults(
        func=cmd_demo
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, so a reader that went away is noticed inside the
        # try rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed (``repro ... | head -1``): end quietly, as
        # the signal module's docs recommend.  Whatever is still
        # buffered goes to devnull, so the flush at exit cannot raise
        # again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
