"""``repro explain``: post-run attribution, opportunity and diff reports.

Three entry points behind the CLI command:

- :func:`explain_point` — run one experiment point with transfer
  records retained, build the full attribution report, infer the
  discard opportunities the configured system left on the table, and
  (optionally) replay the trace with those discards applied to price
  them in bytes.
- :func:`check_discard_inference` — the acceptance harness: trace a
  UVM-opt baseline, run the same point under a hand-discard system,
  infer discards on the baseline trace, replay, and demand the
  *detected* per-direction byte savings equal the *measured* ones
  exactly.
- :func:`diff_reports` — structural diff of two saved explain reports
  (``repro explain --diff run_a.json run_b.json``).

Both run as one collector epoch
(:class:`~repro.harness.pipeline.collector_epoch`): the traced run, the
analyses and the replays nest inside it, so the cyclic collector stays
off until the report is built and runs once, on entry.

Everything heavy (harness, workloads) is imported lazily so
``repro.analysis`` stays importable from low-level modules.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.analysis.attribution import attribution_report
from repro.analysis.opportunities import apply_discards, infer_discards
from repro.harness.systems import System

__all__ = [
    "explain_point",
    "check_discard_inference",
    "diff_reports",
    "render_report",
    "render_diff",
    "render_check",
]

_DIRECTIONS = ("h2d", "d2h", "d2d")


def _with_records(point):
    """The same sweep point with transfer-record retention forced on."""
    overrides = dict(point.driver)
    overrides["keep_transfer_records"] = True
    return dataclasses.replace(point, driver=tuple(sorted(overrides.items())))


def _traced_with_records(point):
    """Trace ``point`` with transfer records kept.  No report field reads
    the engine-occupancy samples, so the metrics sampler stays off."""
    from repro.harness.tracerun import traced_run
    from repro.instrument.trace import TraceConfig

    return traced_run(_with_records(point), TraceConfig(metrics_cadence=0))


def _replay_trace_of(tracer):
    """The run's replay trace, read straight from the tracer's program
    records: no Chrome export and no trace digest."""
    from repro.workloads.replay import tracer_to_replay

    return tracer_to_replay(tracer)


def _totals(runtime) -> Dict[str, int]:
    traffic = runtime.driver.traffic
    return {
        "bytes_h2d": traffic.bytes_h2d,
        "bytes_d2h": traffic.bytes_d2h,
        "bytes_d2d": traffic.bytes_d2d,
        "transfer_count": traffic.transfer_count,
    }


def explain_point(point, estimate_savings: bool = True) -> Dict[str, Any]:
    """Run ``point`` and explain where its bytes went.

    Returns a plain-JSON report: the point's identity, the
    :func:`~repro.analysis.attribution.attribution_report`, the
    inferred missed-discard opportunities, and — when
    ``estimate_savings`` and opportunities exist — the exact byte
    savings of applying them, priced by replaying the recorded op
    stream with the inferred discards inserted.
    """
    from repro.harness.pipeline import collector_epoch

    # The run's object graph dies with _explain's frame, before the
    # epoch switches the collector back on; the first collection after
    # the epoch then frees its cycles instead of traversing it live.
    with collector_epoch():
        return _explain(point, estimate_savings)


def _explain(point, estimate_savings: bool) -> Dict[str, Any]:
    result, tracer, runtime = _traced_with_records(point)
    report: Dict[str, Any] = {
        "point": {
            "workload": point.workload,
            "system": point.system,
            "link": point.link,
            "gpu": point.gpu,
            "scale": point.scale,
            "ratio": point.ratio,
            "batch_size": point.batch_size,
        },
        "oom": result is None,
        "attribution": None,
        "opportunities": [],
        "estimated_savings": None,
    }
    if runtime is None:
        return report
    # The result row already carries the run's attribution summary.
    report["attribution"] = attribution_report(
        runtime, None if result is None else result.attribution
    )
    trace = _replay_trace_of(tracer)
    system = point.system
    if System(system) is System.UVM_OPT:
        # A no-discard baseline: price opportunities as UvmDiscard.
        system = System.UVM_DISCARD.value
    opportunities = infer_discards(trace, system)
    # Opportunities the run already took (it issued a discard covering
    # the same dead window) don't reappear: inference runs on the
    # recorded op stream, existing discards included.
    report["opportunities"] = [
        {k: v for k, v in opp.items()} for opp in opportunities
    ]
    if estimate_savings and opportunities and result is not None:
        from repro.workloads.replay import run_replay

        modified = apply_discards(trace, opportunities, system)
        _, replay_runtime = run_replay(modified)
        before = _totals(runtime)
        after = _totals(replay_runtime)
        report["estimated_savings"] = {
            key: before[key] - after[key]
            for key in ("bytes_h2d", "bytes_d2h", "bytes_d2d")
        }
    return report


def check_discard_inference(
    base_point, hand_point, system: str
) -> Dict[str, Any]:
    """Verify inferred discards against the hand-placed ones, byte for byte.

    ``base_point`` must be the UVM-opt (discard-free) flavor of
    ``hand_point``.  The baseline is traced; discards are inferred from
    its op stream and replayed; the hand-discard point only contributes
    its totals, so it runs untraced.  The check passes when detected
    savings equal measured savings per direction::

        base - replay(infer(base))  ==  base - hand     (h2d and d2h)
    """
    from repro.harness.pipeline import collector_epoch

    # Split like explain_point: the runs die before the epoch ends.
    with collector_epoch():
        return _check(base_point, hand_point, system)


def _check(base_point, hand_point, system: str) -> Dict[str, Any]:
    from repro.harness.pipeline import plan_for, simulate
    from repro.workloads.replay import run_replay

    base_result, base_tracer, base_runtime = _traced_with_records(base_point)
    if base_runtime is None or base_result is None:
        raise RuntimeError(f"{base_point.label}: baseline run OOMed")
    hand_result, hand_runtime = simulate(plan_for(hand_point))
    if hand_runtime is None or hand_result is None:
        raise RuntimeError(f"{hand_point.label}: hand-discard run OOMed")

    base_trace = _replay_trace_of(base_tracer)
    opportunities = infer_discards(base_trace, system)
    inferred_trace = apply_discards(base_trace, opportunities, system)
    _, inferred_runtime = run_replay(inferred_trace)

    base = _totals(base_runtime)
    hand = _totals(hand_runtime)
    inferred = _totals(inferred_runtime)
    measured = {k: base[k] - hand[k] for k in ("bytes_h2d", "bytes_d2h")}
    detected = {k: base[k] - inferred[k] for k in ("bytes_h2d", "bytes_d2h")}
    return {
        "ok": measured == detected,
        "system": system,
        "base": base,
        "hand": hand,
        "inferred": inferred,
        "measured_savings": measured,
        "detected_savings": detected,
        "opportunities": len(opportunities),
    }


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------


def _group_delta(a: Dict[str, Dict], b: Dict[str, Dict]) -> Dict[str, Dict]:
    delta: Dict[str, Dict] = {}
    for name in sorted(set(a) | set(b)):
        row_a = a.get(name, {})
        row_b = b.get(name, {})
        row = {
            key: row_b.get(key, 0) - row_a.get(key, 0)
            for key in sorted(set(row_a) | set(row_b))
        }
        if any(row.values()):
            delta[name] = row
    return delta


def diff_reports(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Structural diff of two explain reports (``b`` minus ``a``).

    Covers the totals, the waste decomposition, and the per-buffer /
    per-phase / per-reason attribution groups; buffers or phases
    present in only one run appear with the other side zeroed.
    """
    attr_a = a.get("attribution") or {}
    attr_b = b.get("attribution") or {}
    totals_a = attr_a.get("totals", {})
    totals_b = attr_b.get("totals", {})
    waste_a = attr_a.get("waste", {})
    waste_b = attr_b.get("waste", {})
    return {
        "points": {"a": a.get("point"), "b": b.get("point")},
        "totals": {
            key: totals_b.get(key, 0) - totals_a.get(key, 0)
            for key in sorted(set(totals_a) | set(totals_b))
        },
        "waste": {
            key: waste_b.get(key, 0) - waste_a.get(key, 0)
            for key in sorted(set(waste_a) | set(waste_b))
            if key != "redundant_fraction"
        },
        "by_buffer": _group_delta(
            attr_a.get("by_buffer", {}), attr_b.get("by_buffer", {})
        ),
        "by_phase": _group_delta(
            attr_a.get("by_phase", {}), attr_b.get("by_phase", {})
        ),
        "by_reason": _group_delta(
            attr_a.get("by_reason", {}), attr_b.get("by_reason", {})
        ),
    }


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------


def _mib(nbytes: int) -> str:
    return f"{nbytes / (1 << 20):10.2f}"


def _table(title: str, header: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(widths[i]) if i else c.ljust(widths[i])
                               for i, c in enumerate(row)))
    return "\n".join(lines)


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable form of an :func:`explain_point` report (MiB)."""
    point = report["point"]
    lines = [
        f"explain {point['workload']}/{point['system']} "
        f"(link={point['link']}, gpu={point['gpu']}, scale={point['scale']})"
    ]
    if report["oom"]:
        lines.append("run OOMed: no attribution available")
        return "\n".join(lines)
    attribution = report["attribution"]
    totals = attribution["totals"]
    lines.append(
        f"traffic: h2d={_mib(totals['bytes_h2d']).strip()} MiB "
        f"d2h={_mib(totals['bytes_d2h']).strip()} MiB "
        f"({totals['transfer_count']} transfers)"
    )
    waste = attribution["waste"]
    lines.append(
        f"waste: useful={_mib(waste['useful_bytes']).strip()} "
        f"redundant={_mib(waste['redundant_bytes']).strip()} MiB "
        f"({waste['redundant_fraction']:.1%}) — "
        f"overwritten={_mib(waste['overwritten_bytes']).strip()} "
        f"discarded={_mib(waste['discarded_bytes']).strip()} "
        f"unused={_mib(waste['unused_bytes']).strip()} | "
        f"dead writebacks={_mib(waste['dead_writeback_bytes']).strip()} "
        f"thrash refetch={_mib(waste['thrash_refetch_bytes']).strip()}"
    )
    lines.append("")
    header = ["buffer", "h2d MiB", "d2h MiB", "useful", "redundant"]
    rows = []
    for name, row in sorted(
        attribution["by_buffer"].items(),
        key=lambda item: -(item[1]["h2d"] + item[1]["d2h"]),
    ):
        rows.append([
            name, _mib(row["h2d"]), _mib(row["d2h"]),
            _mib(row.get("useful", 0)), _mib(row.get("redundant", 0)),
        ])
    lines.append(_table("per-buffer attribution:", header, rows))
    lines.append("")
    header = ["phase", "h2d MiB", "d2h MiB", "useful", "redundant"]
    rows = []
    for name, row in attribution["by_phase"].items():
        rows.append([
            name, _mib(row["h2d"]), _mib(row["d2h"]),
            _mib(row["useful"]), _mib(row["redundant"]),
        ])
    lines.append(_table("per-phase attribution (first-launch order):", header, rows))
    opportunities = report["opportunities"]
    lines.append("")
    if opportunities:
        lines.append(f"{len(opportunities)} missed discard opportunities:")
        for opp in opportunities:
            where = opp.get("killer_name") or f"op {opp['killer']}"
            lines.append(
                f"  {opp['buffer']}[{opp['offset']}:"
                f"{opp['offset'] + opp['length']}] {opp['mode']} after "
                f"{where} ({opp['rule']})"
            )
        savings = report.get("estimated_savings")
        if savings:
            lines.append(
                f"  applying them saves h2d={_mib(savings['bytes_h2d']).strip()} "
                f"MiB d2h={_mib(savings['bytes_d2h']).strip()} MiB (replayed)"
            )
    else:
        lines.append("no missed discard opportunities detected")
    return "\n".join(lines)


def render_diff(diff: Dict[str, Any]) -> str:
    """Human-readable run diff (``b`` minus ``a``, MiB deltas)."""
    points = diff["points"]

    def label(p: Optional[Dict]) -> str:
        if not p:
            return "?"
        return f"{p.get('workload')}/{p.get('system')}"

    lines = [f"diff: {label(points['a'])} -> {label(points['b'])}"]
    totals = diff["totals"]
    lines.append(
        "totals delta: "
        + " ".join(f"{k}={totals[k]:+d}" for k in sorted(totals))
    )
    waste = diff["waste"]
    if any(waste.values()):
        lines.append(
            "waste delta: "
            + " ".join(f"{k}={waste[k]:+d}" for k in sorted(waste) if waste[k])
        )
    for group in ("by_buffer", "by_phase", "by_reason"):
        entries = diff[group]
        if not entries:
            continue
        lines.append(f"{group} deltas:")
        for name, row in entries.items():
            cells = " ".join(f"{k}={v:+d}" for k, v in row.items() if v)
            lines.append(f"  {name}: {cells}")
    return "\n".join(lines)


def render_check(check: Dict[str, Any], label: str) -> str:
    """One-line verdict plus the savings comparison for ``--check``."""
    verdict = "PASS" if check["ok"] else "FAIL"
    measured = check["measured_savings"]
    detected = check["detected_savings"]
    return (
        f"{label} [{check['system']}] {verdict}: measured savings "
        f"h2d={measured['bytes_h2d']} d2h={measured['bytes_d2h']} vs "
        f"detected h2d={detected['bytes_h2d']} d2h={detected['bytes_d2h']} "
        f"({check['opportunities']} inferred discards)"
    )
