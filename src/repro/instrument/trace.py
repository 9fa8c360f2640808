"""Span-based tracing of *simulated* time with Chrome-trace-event export.

The tracer records what the end-of-run aggregates cannot: *when* fault
batches, migrations, evictions, discards, prefetches and kernels happened
relative to each other.  Spans carry simulated timestamps (the engine
clock), one thread-track per device queue / link direction / CUDA stream,
and chaos injections appear as instant events — so a run opens directly
in Perfetto or ``chrome://tracing`` as a timeline.

Design constraints, in order:

1. **Free when not installed.**  Instrumented objects hold
   :data:`NULL_TRACER` (a no-op singleton with ``enabled = False``); hot
   paths do a single attribute load plus a truth test and skip all span
   bookkeeping.  The engine's inner run loops are not instrumented at
   all — sampling rides the existing monitor hook.
2. **Deterministic when enabled.**  Span ids are assigned in record
   order, timestamps are simulated seconds, and the JSON export sorts
   keys — so a cold run, a snapshot-forked run and a chaos-repeat run
   with the same seed produce byte-identical trace files and an equal
   :meth:`Tracer.digest`.
3. **No perturbation.**  Recording a span never schedules an event,
   touches driver state or draws randomness; a traced run's simulation
   output is byte-identical to an untraced run.

Install order matters for fork determinism: like the chaos injector, a
tracer is installed *after* the setup prefix (or its ``fork()``) so the
shared prefix stays tracer-free (see ``repro.harness.pipeline``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.instrument.metrics import EngineMonitorSampler, MetricsRegistry

__all__ = [
    "TraceConfig",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "merge_chrome_traces",
    "validate_chrome_trace",
]

_SECONDS_TO_US = 1e6


class TraceConfig:
    """Settings of one :class:`Tracer`.

    An untraced run installs no tracer at all and keeps
    :data:`NULL_TRACER` on every instrumented object — it costs nothing
    beyond the dormant attribute checks.

    ``program_only`` limits the tracer to the ``program`` channel, the
    replayable record of the host program's runtime calls (see
    :meth:`Tracer.install`).  ``repro explain`` sets it, because its
    report reads nothing else; ``repro trace``, ``repro run --trace``
    and ``repro chaos`` keep the whole timeline.
    """

    __slots__ = ("metrics_cadence", "max_records", "program_only")

    def __init__(
        self,
        metrics_cadence: int = 256,
        max_records: Optional[int] = None,
        program_only: bool = False,
    ) -> None:
        if metrics_cadence < 0:
            raise ValueError(f"metrics_cadence must be >= 0, got {metrics_cadence}")
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        #: Engine events between metric samples; 0 disables the sampler.
        self.metrics_cadence = metrics_cadence
        #: Record-count ceiling; beyond it new spans are counted as
        #: dropped instead of stored (``None`` = unbounded).
        self.max_records = max_records
        #: Attach to the runtime and its streams only: the driver, the
        #: migration engine and the executors keep :data:`NULL_TRACER`.
        self.program_only = program_only


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A singleton (:data:`NULL_TRACER`) shared by every instrumented object;
    ``__reduce__`` restores the module instance, so engine snapshots and
    forks (and ``copy.deepcopy``) keep pointing at it instead of cloning
    it.
    """

    __slots__ = ()

    enabled = False
    dropped = 0

    def span(self, *args: Any, **kwargs: Any) -> int:
        return -1

    def instant(self, *args: Any, **kwargs: Any) -> int:
        return -1

    def note_op(self, handle: Any, record_id: int) -> None:
        pass

    def op_for(self, handle: Any) -> int:
        return -1

    def observe(self, name: str, value: float) -> None:
        pass

    def install(self, runtime: Any) -> "NullTracer":
        return self

    def uninstall(self) -> None:
        pass

    def __reduce__(self):
        # A blob-forked snapshot keeps pointing at the shared singleton
        # instead of growing clones.
        return (_restore_null_tracer, ())


def _restore_null_tracer() -> "NullTracer":
    """Pickle target restoring the :data:`NULL_TRACER` singleton."""
    return NULL_TRACER


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans/instants in simulated time and exports Chrome JSON.

    The one recorder of run events: driver decisions (faults, evictions,
    discards, frame retirements), DMA commands, kernels, CUDA calls and
    chaos injections all land in :attr:`events`.
    """

    __slots__ = (
        "config",
        "enabled",
        "events",
        "dropped",
        "metrics",
        "process_name",
        "_sampler",
        "_attached",
        "_runtime",
        "_op_records",
    )

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        #: Always ``True``; a slot (not a class constant) so the traced
        #: hot paths' ``tracer.enabled`` test stays one slot load.
        self.enabled = True
        #: Flat record list; a record's position is its stable span id.
        #: Span:    ("X", track, name, category, start, end, args)
        #: Instant: ("i", track, name, category, when, args)
        self.events: List[Tuple] = []
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self.process_name = "repro-sim"
        self._sampler: Optional[EngineMonitorSampler] = None
        self._attached: List[Tuple[Any, Any]] = []
        self._runtime: Any = None
        #: Async-op handle (stream Process object) -> the id of the
        #: "program" record that enqueued it, so cross-stream waits can
        #: name the op they wait on.  Keyed by the live object (not
        #: ``id()``, which the allocator reuses); entries live as long
        #: as the tracer, which is bounded by one run.
        self._op_records: Dict[Any, int] = {}

    # -- recording -------------------------------------------------------

    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        category: str = "driver",
        args: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record a completed duration span; returns its stable id."""
        events = self.events
        cap = self.config.max_records
        if cap is not None and len(events) >= cap:
            self.dropped += 1
            return -1
        span_id = len(events)
        events.append(("X", track, name, category, start, end, args))
        return span_id

    def instant(
        self,
        track: str,
        name: str,
        when: float,
        category: str = "chaos",
        args: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record a zero-duration marker; returns its stable id."""
        events = self.events
        cap = self.config.max_records
        if cap is not None and len(events) >= cap:
            self.dropped += 1
            return -1
        span_id = len(events)
        events.append(("i", track, name, category, when, args))
        return span_id

    def note_op(self, handle: Any, record_id: int) -> None:
        """Remember which "program" record enqueued the async op whose
        stream handle is ``handle`` (no-op for dropped records)."""
        if record_id >= 0:
            self._op_records[handle] = record_id

    def op_for(self, handle: Any) -> int:
        """The "program" record id that enqueued ``handle`` (-1 if
        unknown — e.g. the op predates this tracer's install)."""
        return self._op_records.get(handle, -1)

    def observe(self, name: str, value: float) -> None:
        """Feed a histogram sample into the attached metrics registry."""
        self.metrics.observe(name, value)

    # -- lifecycle -------------------------------------------------------

    def install(self, runtime: Any) -> "Tracer":
        """Attach to every instrumented object reachable from ``runtime``.

        Replaces each object's ``tracer`` attribute with ``self`` (saving
        the previous value for :meth:`uninstall`) and, when the config
        asks for it, installs the engine-monitor metrics sampler.

        With ``config.program_only`` the tracer attaches to the runtime
        and its streams alone, the producers of the ``program`` channel
        (streams record the cross-stream ``wait`` instants, and keep
        their ``stream/<name>`` op spans).  The driver, the migration
        engine and the executors keep :data:`NULL_TRACER` and take
        their untraced paths: no fault, eviction, wire, discard,
        revival or kernel record and no histogram sample.  Record ids
        are positions in :attr:`events`, so such a trace numbers its
        async ops differently from a full one; the op stream is the
        same.
        """
        if self._runtime is not None:
            raise RuntimeError("tracer is already installed")
        self._runtime = runtime
        if not self.config.program_only:
            driver = runtime.driver
            self._attach(driver)
            self._attach(driver.migration)
            for executor in runtime.executors.values():
                self._attach(executor)
        for stream in runtime.streams():
            self._attach(stream)
        # The runtime itself, so streams created after install inherit us.
        self._attach(runtime)
        cadence = self.config.metrics_cadence
        if cadence:
            self._sampler = EngineMonitorSampler(self.metrics, runtime, cadence)
            self._sampler.install()
        return self

    def _attach(self, obj: Any) -> None:
        self._attached.append((obj, obj.tracer))
        obj.tracer = self

    def uninstall(self) -> None:
        """Detach from all instrumented objects, restoring what was there."""
        if self._runtime is None:
            return
        if self._sampler is not None:
            self._sampler.uninstall()
            self._sampler = None
        for obj, previous in reversed(self._attached):
            obj.tracer = previous
        self._attached.clear()
        self._runtime = None

    # -- export ----------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over every record; equal digests => equal timelines."""
        payload = hashlib.sha256()
        for record in self.events:
            payload.update(repr(_canonical_record(record)).encode("utf-8"))
            payload.update(b"\x00")
        payload.update(b"dropped:%d" % self.dropped)
        return payload.hexdigest()

    def phase_seconds(self) -> Dict[str, float]:
        """Total simulated seconds per span category (instants excluded).

        Spans on different tracks overlap in time, so per-category totals
        can sum to more than the run's elapsed time; they answer "how much
        work of each kind", not "what fraction of the wall".
        """
        totals: Dict[str, float] = {}
        for record in self.events:
            if record[0] != "X":
                continue
            category = record[3]
            totals[category] = totals.get(category, 0.0) + (record[5] - record[4])
        return totals

    def _intervals(self, track: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of every span on ``track``, in start order."""
        return sorted(
            (record[4], record[5])
            for record in self.events
            if record[0] == "X" and record[1] == track
        )

    def busy_seconds(self, track: str) -> float:
        """Total simulated seconds of the spans on ``track`` (e.g.
        ``gpu0/compute``, ``link/h2d``, ``link/d2h``): its busy time
        whenever, as on a one-GPU run, the track's spans never overlap."""
        return sum(end - start for start, end in self._intervals(track))

    def overlap_seconds(self, track_a: str, track_b: str) -> float:
        """Simulated seconds during which both tracks were busy at once
        — e.g. the compute/H2D overlap that prefetching buys."""
        spans_a = self._intervals(track_a)
        spans_b = self._intervals(track_b)
        total = 0.0
        i = j = 0
        while i < len(spans_a) and j < len(spans_b):
            start = max(spans_a[i][0], spans_b[j][0])
            end = min(spans_a[i][1], spans_b[j][1])
            if end > start:
                total += end - start
            if spans_a[i][1] <= spans_b[j][1]:
                i += 1
            else:
                j += 1
        return total

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Build a Chrome-trace-event dict (Perfetto/chrome://tracing)."""
        tids: Dict[str, int] = {}
        body: List[Dict[str, Any]] = []
        for span_id, record in enumerate(self.events):
            kind, track, name, category = record[0], record[1], record[2], record[3]
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
            if kind == "X":
                start, end, args = record[4], record[5], record[6]
                event = {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "name": name,
                    "cat": category,
                    "ts": start * _SECONDS_TO_US,
                    "dur": (end - start) * _SECONDS_TO_US,
                    "args": dict(args or {}, id=span_id),
                }
            else:
                when, args = record[4], record[5]
                event = {
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid,
                    "name": name,
                    "cat": category,
                    "ts": when * _SECONDS_TO_US,
                    "args": dict(args or {}, id=span_id),
                }
            body.append(event)
        metadata: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "name": "process_name",
                "args": {"name": self.process_name},
            }
        ]
        for track, tid in sorted(tids.items(), key=lambda item: item[1]):
            metadata.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return {
            "traceEvents": metadata + body,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated",
                "dropped_records": self.dropped,
                "trace_digest": self.digest(),
            },
        }

    def to_json(self) -> str:
        """Serialize deterministically (sorted keys, compact separators)."""
        return json.dumps(
            self.to_chrome_trace(), sort_keys=True, separators=(",", ":")
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def _canonical_record(record: Tuple) -> Tuple:
    """A hashable, order-stable form of a record (args dict sorted)."""
    args = record[-1]
    canonical_args = tuple(sorted(args.items())) if args else ()
    return record[:-1] + (canonical_args,)


def merge_chrome_traces(named: List[Tuple[str, "Tracer"]]) -> Dict[str, Any]:
    """Merge tracers into one multi-process trace, one pid per label."""
    events: List[Dict[str, Any]] = []
    digests: Dict[str, str] = {}
    for pid, (label, tracer) in enumerate(named, start=1):
        trace = tracer.to_chrome_trace()
        digests[label] = trace["otherData"]["trace_digest"]
        for event in trace["traceEvents"]:
            event = dict(event, pid=pid)
            if event.get("ph") == "M" and event.get("name") == "process_name":
                event["args"] = {"name": label}
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "trace_digests": digests},
    }


_VALID_PHASES = {"X", "i", "M"}


def validate_chrome_trace(data: Any) -> List[str]:
    """Check ``data`` against the Chrome trace-event format.

    Returns a list of problems (empty = valid).  Covers the subset of the
    format this exporter emits: the JSON-object container form with
    ``X`` (complete), ``i`` (instant) and ``M`` (metadata) events.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object with a traceEvents array"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown or missing ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name must be a string")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid must be an integer")
        if phase in ("X", "i"):
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: tid must be an integer")
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative number")
            if not isinstance(event.get("cat"), str):
                problems.append(f"{where}: cat must be a string")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope s must be t, p or g")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: args must be an object")
    return problems
