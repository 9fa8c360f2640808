"""Traced runs: spans around layer boundaries, per-layer self time, counts.

The benchmark measures each layer from outside:
:meth:`Recorder.install` wraps public entry points of the ``repro``
package in span recorders, a stdlib ``cProfile`` gives self time that
:func:`fold_profile` assigns to layers by module, and counts come from
public results (``ExperimentResult`` fields,
``runtime.env.event_count``, ``runtime.driver.traffic.transfer_count``).

Processes forked after :meth:`Recorder.install` (sweep pool workers,
the serve executor's workers) inherit the wrappers; in such a child every
top-level wrapped call runs under its own profiler and appends its
spans, counts and self time to ``<dir>/spool/<pid>.jsonl`` when it
returns, because pool workers are terminated without running exit
hooks.

Run as a script, this module starts ``repro serve`` with tracing
installed: ``python tracing.py DIR serve --port 0 ...``.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import json
import math
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from suite import median_or_zero

# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------

#: Module (or package) -> layer.  A module takes the layer of its
#: longest listed prefix; ``repro`` itself matches only exactly, so a
#: new module outside every listed package has no layer and the
#: self-test fails instead of the module's time landing in "other".
LAYER_OF_MODULE: Dict[str, str] = {
    "repro": "harness",
    "repro.__main__": "harness",
    "repro.engine": "engine",
    "repro.engine.core": "engine",
    "repro.engine.resources": "engine",
    "repro.engine.snapshot": "snapshot",
    "repro.driver": "driver",
    "repro.driver.migration": "migration",
    "repro.core": "driver",
    "repro.core.semantics": "bookkeeping",
    "repro.vm": "driver",
    "repro.memsim": "driver",
    "repro.interconnect": "migration",
    "repro.instrument": "bookkeeping",
    "repro.analysis": "bookkeeping",
    "repro.cuda": "frontend",
    "repro.gpu": "frontend",
    "repro.access": "frontend",
    "repro.units": "frontend",
    "repro.errors": "frontend",
    "repro.workloads": "workloads",
    "repro.baselines": "workloads",
    "repro.harness": "harness",
    "repro.chaos": "harness",
    "repro.cli": "harness",
    "repro.serve": "serve",
    "repro.fastmodel": "fastmodel",
}

LAYERS = (
    "engine", "driver", "migration", "bookkeeping", "frontend",
    "workloads", "harness", "snapshot", "serve", "fastmodel",
)
#: Self time outside the package: the benchmark's own loop and library
#: code not called directly from a ``repro`` function.
OTHER = "other"


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module name, or ``None`` when unlisted."""
    parts = module.split(".")
    if len(parts) == 1:
        return LAYER_OF_MODULE.get(module)
    for end in range(len(parts), 1, -1):
        layer = LAYER_OF_MODULE.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


class ModuleFold:
    """Maps profiled code locations to layers."""

    def __init__(self, src_root: Path) -> None:
        self._root = str(Path(src_root).resolve()) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of_file(self, filename: str) -> Optional[str]:
        cached = self._cache.get(filename, "")
        if cached != "":
            return cached
        layer = None
        path = os.path.abspath(filename)
        if path.startswith(self._root) and path.endswith(".py"):
            module = path[len(self._root):-3].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            layer = layer_of(module)
        self._cache[filename] = layer
        return layer


def fold_profile(profile: cProfile.Profile, fold: ModuleFold) -> Dict[str, float]:
    """Self seconds per layer.

    A ``repro`` function's own time goes to its module's layer.  Time of
    any other function (C builtins, the standard library, NumPy) goes to
    the layer of the function that called it, split by call edge, and to
    :data:`OTHER` when that caller is not a ``repro`` function either.
    """
    totals: Dict[str, float] = defaultdict(float)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = fold.layer_of_file(filename)
        if layer is not None:
            totals[layer] += tottime
            continue
        if not callers:
            totals[OTHER] += tottime
            continue
        for (caller_file, _l, _n), edge in callers.items():
            totals[fold.layer_of_file(caller_file) or OTHER] += edge[2]
    return dict(totals)


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------

#: Wrapped entry points: (module, attribute path, layer of the span).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.harness.sweep", "run_sweep", "harness"),
    ("repro.harness.sweep", "execute_group", "harness"),
    ("repro.harness.sweep", "execute_point", "harness"),
    ("repro.harness.runner", "run_uvm_experiment", "harness"),
    ("repro.harness.runner", "run_uvm_prefix", "harness"),
    ("repro.harness.runner", "run_uvm_body", "harness"),
    ("repro.harness.results", "ExperimentResult.from_runtime", "harness"),
    ("repro.engine.snapshot", "EngineSnapshot.__init__", "snapshot"),
    ("repro.engine.snapshot", "EngineSnapshot.fork", "snapshot"),
    ("repro.engine.snapshot", "resolve_prefix_snapshot", "snapshot"),
    ("repro.analysis.explain", "explain_point", "bookkeeping"),
    ("repro.analysis.attribution", "attribution_report", "bookkeeping"),
    ("repro.analysis.opportunities", "infer_discards", "bookkeeping"),
    ("repro.analysis.opportunities", "apply_discards", "bookkeeping"),
    ("repro.workloads.replay", "run_replay", "workloads"),
    ("repro.fastmodel.model", "predict_point", "fastmodel"),
    ("repro.serve.worker", "run_point", "serve"),
)

#: Span names of calls that simulate or predict; ``execute_point``'s
#: own overhead is its duration minus these children.
WORK_CHILDREN = frozenset(
    {"run_uvm_experiment", "run_uvm_prefix", "run_uvm_body", "predict_point"}
)

#: Counter names summed from ``ExperimentResult.counters``.
DRIVER_COUNTERS = {
    "driver.fault_batches": "gpu_fault_batches",
    "driver.faulted_blocks": "gpu_faulted_blocks",
    "driver.evicted_blocks": "evicted_blocks",
    "driver.discarded_blocks": "discarded_blocks",
    "driver.discard_revivals": "discard_revivals",
    "driver.prefetched_blocks": "prefetched_blocks",
}


def _item_of(args: tuple) -> Optional[str]:
    """The item id a root span takes from its first argument."""
    if not args:
        return None
    first = args[0]
    label = getattr(first, "label", None)
    if isinstance(label, str):
        return label
    if isinstance(first, dict) and "workload" in first:
        return json.dumps(first, sort_keys=True)
    if isinstance(first, list) and first and hasattr(first[0], "label"):
        return f"group[{len(first)}]:{first[0].label}"
    return None


class Recorder:
    """In-memory spans, counts and self time of one process."""

    def __init__(self, directory: Path, src_root: Path) -> None:
        self.directory = Path(directory)
        self.spool = self.directory / "spool"
        self.spool.mkdir(parents=True, exist_ok=True)
        self.fold = ModuleFold(src_root)
        self.pid = os.getpid()
        self.is_child = False
        self._reset()
        self._patched: List[Tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.origins: Dict[str, int] = defaultdict(int)
        self._ids = 0
        self._local = threading.local()

    # -- per-process state -------------------------------------------------

    def _enter_process(self) -> None:
        """First wrapped call in a forked child: drop the parent's copy."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.is_child = True
            self._reset()

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        self._ids += 1
        return f"{self.pid}.{self._ids}"

    @contextlib.contextmanager
    def span(self, name: str, layer: str, item: Optional[str] = None):
        """Record one span around the ``with`` body (client requests)."""
        frame = self._open(name, layer, item)
        try:
            yield frame
        finally:
            self._close(frame)

    def _open(self, name: str, layer: str, item: Optional[str]) -> Dict[str, object]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if item is None and parent is not None:
            item = parent["item"]
        frame = {
            "name": name, "cat": layer, "id": self._next_id(),
            "parent": parent["id"] if parent else None, "item": item,
            "pid": self.pid, "tid": threading.get_ident(),
            "start_ns": time.perf_counter_ns(),
        }
        stack.append(frame)
        return frame

    def _close(self, frame: Dict[str, object]) -> None:
        frame["end_ns"] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(frame)

    # -- counts ------------------------------------------------------------

    def note_result(self, runtime, result) -> None:
        counts = self.counts
        counts["engine.events"].append(runtime.env.event_count)
        counts["migration.transfers"].append(runtime.driver.traffic.transfer_count)
        counts["migration.h2d_gb"].append(result.traffic_h2d_gb)
        counts["migration.d2h_gb"].append(result.traffic_d2h_gb)
        counts["migration.useful_gb"].append(result.useful_gb)
        counts["migration.traffic_gb"].append(result.traffic_gb)
        for name, counter in DRIVER_COUNTERS.items():
            counts[name].append(result.counters.get(counter, 0))

    # -- profiles and spooling ---------------------------------------------

    def add_profile(self, profile: cProfile.Profile) -> None:
        for layer, seconds in fold_profile(profile, self.fold).items():
            self.self_seconds[layer] += seconds

    def flush(self) -> None:
        """Append this process's buffers to its spool file and clear them."""
        record = {
            "spans": self.spans,
            "counts": self.counts,
            "self_seconds": self.self_seconds,
            "origins": self.origins,
        }
        with open(self.spool / f"{self.pid}.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = defaultdict(list)
        self.self_seconds = defaultdict(float)
        self.origins = defaultdict(int)

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder._enter_process()
            root = not recorder._stack()
            profile = None
            if root and recorder.is_child:
                profile = cProfile.Profile()
                profile.enable()
            frame = recorder._open(name, layer, _item_of(args) if root else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                if profile is not None:
                    profile.disable()
                recorder._close(frame)
            if name == "ExperimentResult.from_runtime":
                recorder.note_result(args[1], result)  # args[0] is the class
            elif name == "resolve_prefix_snapshot":
                recorder.origins[str(result[1])] += 1
            if profile is not None:
                recorder.add_profile(profile)
                recorder.flush()
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry wherever ``repro`` refers to it."""
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, attr, layer))
                else:
                    wrapped = self._wrap(raw, attr, layer)
                self._patched.append((owner, name, raw))
                setattr(owner, name, wrapped)
                continue
            original = getattr(module, name)
            wrapped = self._wrap(original, attr, layer)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if not (other_name == "repro" or other_name.startswith("repro.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patched.append((other, key, original))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []


# ----------------------------------------------------------------------
# merging and per-layer metrics
# ----------------------------------------------------------------------


def merge(recorder: Recorder) -> Dict[str, object]:
    """This process's buffers plus every spooled child record."""
    spans = list(recorder.spans)
    counts: Dict[str, List[float]] = defaultdict(list)
    self_seconds: Dict[str, float] = defaultdict(float)
    origins: Dict[str, int] = defaultdict(int)

    def absorb(c, s, o) -> None:
        for key, values in c.items():
            counts[key].extend(values)
        for key, value in s.items():
            self_seconds[key] += value
        for key, value in o.items():
            origins[key] += value

    absorb(recorder.counts, recorder.self_seconds, recorder.origins)
    for path in sorted(recorder.spool.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            spans.extend(record["spans"])
            absorb(record["counts"], record["self_seconds"], record["origins"])
    return {
        "spans": spans, "counts": counts,
        "self_seconds": self_seconds, "origins": origins,
    }


def _durations_ms(spans, name: str, parent_name: Optional[str] = None) -> List[float]:
    by_id = {span["id"]: span for span in spans}
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        if parent_name is not None:
            parent = by_id.get(span["parent"])
            if parent is None or parent["name"] != parent_name:
                continue
        out.append((span["end_ns"] - span["start_ns"]) / 1e6)
    return out


def _point_overheads_ms(spans) -> List[float]:
    work: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span["name"] in WORK_CHILDREN and span["parent"] is not None:
            work[span["parent"]] += span["end_ns"] - span["start_ns"]
    return [
        (span["end_ns"] - span["start_ns"] - work[span["id"]]) / 1e6
        for span in spans
        if span["name"] == "execute_point"
    ]


def layer_metrics(merged: Dict[str, object]) -> Dict[str, float]:
    """Every in-program per-layer metric (serve/loadgen ones excluded)."""
    spans = merged["spans"]
    counts = {k: math.fsum(v) for k, v in merged["counts"].items()}
    self_seconds = merged["self_seconds"]
    origins = merged["origins"]
    total_self = math.fsum(self_seconds.values()) or 1.0

    def share(layer: str) -> float:
        return self_seconds.get(layer, 0.0) / total_self

    def count(name: str) -> float:
        return counts.get(name, 0.0)

    events = count("engine.events")
    blocks = sum(
        count(name)
        for name in (
            "driver.faulted_blocks", "driver.prefetched_blocks",
            "driver.discarded_blocks", "driver.evicted_blocks",
        )
    )
    traffic = count("migration.traffic_gb")
    metrics = {
        "engine.self_share": share("engine"),
        "engine.events": events,
        "engine.ns_per_event": (
            self_seconds.get("engine", 0.0) * 1e9 / events if events else 0.0
        ),
        "driver.self_share": share("driver"),
        "driver.us_per_block": (
            self_seconds.get("driver", 0.0) * 1e6 / blocks if blocks else 0.0
        ),
    }
    for name in DRIVER_COUNTERS:
        metrics[name] = count(name)
    metrics.update({
        "migration.self_share": share("migration"),
        "migration.transfers": count("migration.transfers"),
        "migration.h2d_gb": count("migration.h2d_gb"),
        "migration.d2h_gb": count("migration.d2h_gb"),
        "migration.useful_ratio": (
            count("migration.useful_gb") / traffic if traffic else 0.0
        ),
        "bookkeeping.self_share": share("bookkeeping"),
        "bookkeeping.attribution_ms_p50": median_or_zero(
            _durations_ms(spans, "attribution_report")
        ),
        "bookkeeping.infer_ms_p50": median_or_zero(
            _durations_ms(spans, "infer_discards")
        ),
        "frontend.self_share": share("frontend"),
        "workloads.self_share": share("workloads"),
        "workloads.replay_ms_p50": median_or_zero(_durations_ms(spans, "run_replay")),
        "harness.self_share": share("harness"),
        "harness.result_ms_p50": median_or_zero(
            _durations_ms(spans, "ExperimentResult.from_runtime")
        ),
        "harness.point_overhead_ms_p50": median_or_zero(_point_overheads_ms(spans)),
        "snapshot.prefix_builds": float(origins.get("built", 0)),
        "snapshot.forks": float(
            sum(1 for span in spans if span["name"] == "EngineSnapshot.fork")
        ),
        "snapshot.build_ms_p50": median_or_zero(
            _durations_ms(spans, "run_uvm_prefix", "resolve_prefix_snapshot")
        ),
        "snapshot.serialize_ms_p50": median_or_zero(
            _durations_ms(spans, "EngineSnapshot.__init__")
        ),
        "snapshot.fork_ms_p50": median_or_zero(
            _durations_ms(spans, "EngineSnapshot.fork")
        ),
        "snapshot.blob_hits": float(origins.get("blob", 0)),
        "fastmodel.predict_ms_p50": median_or_zero(
            _durations_ms(spans, "predict_point")
        ),
    })
    return metrics


#: Per-layer metrics that repeat exactly across traced runs of one
#: seed (simulated work, not host time).
DETERMINISTIC = (
    "engine.events", *DRIVER_COUNTERS, "migration.transfers",
    "migration.h2d_gb", "migration.d2h_gb", "migration.useful_ratio",
    "snapshot.prefix_builds", "snapshot.forks",
)


def chrome_trace(spans: List[Dict[str, object]], title: str) -> Dict[str, object]:
    """Spans as Chrome trace-event JSON (open it in ui.perfetto.dev)."""
    origin = min((span["start_ns"] for span in spans), default=0)
    tids: Dict[Tuple[int, int], int] = {}
    events: List[Dict[str, object]] = []
    for pid in sorted({span["pid"] for span in spans}):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid,
            "args": {"name": f"{title} pid {pid}"},
        })
    for span in sorted(spans, key=lambda s: (s["start_ns"], s["id"])):
        tid = tids.setdefault((span["pid"], span["tid"]), len(tids) + 1)
        events.append({
            "ph": "X", "name": span["name"], "cat": span["cat"],
            "pid": span["pid"], "tid": tid,
            "ts": (span["start_ns"] - origin) / 1e3,
            "dur": (span["end_ns"] - span["start_ns"]) / 1e3,
            "args": {"id": span["id"], "parent": span["parent"], "item": span["item"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# traced ``repro serve``
# ----------------------------------------------------------------------


def serve_traced(directory: str, argv: List[str]) -> int:
    """Run ``repro serve`` with wrappers installed and the server's own
    process profiled; its executor workers inherit the wrappers."""
    import repro
    from repro.cli import main

    recorder = Recorder(Path(directory), Path(repro.__file__).parent.parent)
    recorder.install()
    # CPU time: the server's event loop mostly waits in select(), which
    # is not work of any layer.
    profile = cProfile.Profile(time.thread_time)
    profile.enable()
    try:
        code = main(argv)
    finally:
        profile.disable()
        recorder.add_profile(profile)
        recorder.flush()
    return code


if __name__ == "__main__":
    sys.exit(serve_traced(sys.argv[1], sys.argv[2:]))
