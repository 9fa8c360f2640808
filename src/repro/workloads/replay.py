"""Access-trace replay: run an external memory-access trace as a workload.

This module is the tracer's record stream *in reverse*.  A traced run
records every host-visible CUDA API call on a dedicated ``program``
track (category ``program``).  One converter lifts those records into a
standalone **replay trace** — a small, documented JSON/CSV document —
and :class:`ReplayWorkload` re-enqueues the recorded operations against
a fresh simulator, reproducing the original run's migration behavior
byte for byte (``tests/test_replay.py`` pins ``bytes_h2d``/``bytes_d2h``
equality).

The converter has two front ends that yield the same trace:
:func:`tracer_to_replay` reads a live :class:`~repro.instrument.trace.Tracer`
(what ``repro explain`` uses, with no export in between), and
:func:`chrome_trace_to_replay` reads a ``repro trace`` Chrome export
(what ``repro replay`` loads from disk).

Replay trace schema (version 1)
-------------------------------

JSON form::

    {
      "version": 1,
      "meta": {
        "workload": "bfs", "system": "UvmDiscard",
        "link": "gen3", "gpu": "rtx3080ti",
        "scale": 0.03125, "ratio": 2.0,
        "batch_size": null, "app_bytes": 171966464,
        "expected": {"bytes_h2d": ..., "bytes_d2h": ...,
                     "transfer_count": ...}          # optional check
      },
      "buffers": [
        {"name": "bfs_edges", "nbytes": 134217728,
         "spans": [[0, 134217728]]}                  # populated spans
      ],
      "ops": [ {"op": "...", "t": <seconds>, ...}, ... ]
    }

``buffers`` describes the state at the measured body's start: each
buffer is allocated in order and every ``[offset, length]`` span is
``host_write``-populated (CPU-resident), exactly what the recorded
setup phase left behind.  ``ops`` is the measured body.  Op kinds:

===========  =====================================================
``measure``  mark the measured region (``begin_measurement``)
``stream``   create a stream: ``stream``
``malloc``   ``buffer``, ``nbytes`` (mid-body allocation)
``free``     ``buffer``
``host_access``  ``buffer``, ``mode`` (read/write/readwrite),
             ``offset``, ``length`` — synchronous CPU access
``prefetch`` ``id``, ``buffer``, ``dest``, ``offset``, ``length``,
             ``stream`` — async ``cudaMemPrefetchAsync``
``discard``  ``id``, ``buffer``, ``mode`` (eager/lazy), ``offset``,
             ``length``, ``stream`` — async ``UvmDiscardAsync``
``kernel``   ``id``, ``kernel``, ``duration`` (may be null),
             ``flops``, ``waves``, ``device``, ``stream``,
             ``accesses``: list of ``{buffer, mode, offset, length,
             pattern}`` where pattern is ``{"kind": "sequential" |
             "strided"}`` or ``{"kind": "irregular", "passes": P,
             "seed": S}``
``kernel_raw``  ``kernel``, ``duration``, ``stream``
``memcpy``   ``direction`` (h2d/d2h/d2d), ``nbytes``, ``reason``,
             ``device``, ``stream``
``sync``     ``stream`` (null = device-wide synchronize)
``wait``     ``stream``, ``on`` — stream waits for the async op
             whose ``id`` is ``on``
===========  =====================================================

``id`` is the op's record position in the source trace; only async ops
(prefetch/discard/kernel/kernel_raw/memcpy) carry one, and ``wait.on``
must reference one that appeared earlier.  ``t`` (simulated seconds,
optional) must be non-negative and non-decreasing; replay re-derives
all timing, so ``t`` is validated but not used for scheduling.

CSV form
--------

One op per row, columns ``t,op,id,stream,buffer,mode,offset,length,
value,extra``; ``#``-prefixed lines are pragmas or comments::

    #repro-replay-csv v1
    #meta workload=bfs system=UvmDiscard link=gen3 gpu=rtx3080ti ...
    #expect bytes_h2d=807403520 bytes_d2h=773849088 transfer_count=711
    t,op,id,stream,buffer,mode,offset,length,value,extra
    ,buffer,,,bfs_edges,,,134217728,,
    ,span,,,bfs_edges,,0,134217728,,
    0.0,measure,,,,,,,,
    0.0,stream,,compute,,,,,,
    0.0,prefetch,12,transfer,bfs_visited,gpu0,0,4194304,,
    0.0,kernel,15,compute,bfs_level_0,,8,,0.0011,flops=0.0;device=gpu0
    0.0,access,,,bfs_edges,read,0,134217728,irregular:1:3061,
    0.0,wait,,compute,,,,,12,
    1.2,sync,,,,,,,,

Column reuse per row kind: ``buffer`` rows carry ``nbytes`` in the
``length`` column; ``kernel`` rows carry the kernel name in ``buffer``,
waves in ``offset``, duration in ``value`` (empty = derive from flops)
and ``flops=F;device=D`` in ``extra``; ``access`` rows (attached to the
preceding ``kernel`` row) carry the pattern spec in ``value`` —
``sequential``, ``strided``, or ``irregular:<passes>:<seed>``;
``prefetch`` rows carry the destination in ``mode``; ``memcpy`` rows
carry direction in ``mode``, byte count in ``length`` and reason in
``value``; ``wait`` rows carry the target id in ``value``.

Malformed input of either form raises :class:`TraceFormatError` (a
:class:`~repro.errors.ConfigurationError`) naming the offending row.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.access import AccessMode
from repro.errors import ConfigurationError
from repro.gpu.access import IrregularPattern, SequentialPattern, StridedPattern
from repro.instrument.traffic import TransferReason
from repro.interconnect.link import TransferDirection

__all__ = [
    "TraceFormatError",
    "ReplayTrace",
    "ReplayWorkload",
    "chrome_trace_to_replay",
    "tracer_to_replay",
    "replay_trace_to_csv",
    "replay_trace_from_csv",
    "load_replay_trace",
    "per_buffer_transfer_totals",
    "run_replay",
]

SCHEMA_VERSION = 1

#: Op kinds that enqueue asynchronous work and therefore carry an id.
_ASYNC_OPS = frozenset(
    {"prefetch", "discard", "kernel", "kernel_raw", "memcpy"}
)
_OP_KINDS = _ASYNC_OPS | frozenset(
    {"measure", "stream", "malloc", "free", "host_access", "sync", "wait"}
)
_ACCESS_MODES = frozenset(m.value for m in AccessMode)
_DISCARD_MODES = frozenset({"eager", "lazy"})
_DIRECTIONS = frozenset(d.value for d in TransferDirection)
_REASONS = frozenset(r.value for r in TransferReason)
_PATTERN_KINDS = frozenset({"sequential", "strided", "irregular"})

_CSV_COLUMNS = (
    "t",
    "op",
    "id",
    "stream",
    "buffer",
    "mode",
    "offset",
    "length",
    "value",
    "extra",
)
_CSV_MAGIC = "#repro-replay-csv v1"

#: meta keys carried through the CSV ``#meta`` pragma, with their types.
_META_FIELDS = {
    "workload": str,
    "system": str,
    "link": str,
    "gpu": str,
    "scale": float,
    "ratio": float,
    "batch_size": int,
    "app_bytes": int,
    "config": str,
}
_EXPECT_FIELDS = ("bytes_h2d", "bytes_d2h", "transfer_count")


class TraceFormatError(ConfigurationError):
    """A replay trace (JSON or CSV) violates the documented schema."""


def _fail(where: str, problem: str) -> None:
    raise TraceFormatError(f"replay trace: {where}: {problem}")


def _require_int(where: str, value: Any, field: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"{field} must be an integer, got {value!r}")
    if value < minimum:
        _fail(where, f"{field} must be >= {minimum}, got {value}")
    return value


def _require_str(where: str, value: Any, field: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(where, f"{field} must be a non-empty string, got {value!r}")
    return value


def _check_span(where: str, offset: Any, length: Any, nbytes: int) -> None:
    _require_int(where, offset, "offset")
    _require_int(where, length, "length", minimum=1)
    if offset + length > nbytes:
        _fail(
            where,
            f"span [{offset}, {offset + length}) exceeds the buffer's "
            f"{nbytes} bytes (bad VA)",
        )


def _pattern_from_fields(where: str, fields: Any):
    if not isinstance(fields, dict):
        _fail(where, f"pattern must be an object, got {fields!r}")
    kind = fields.get("kind")
    if kind == "sequential":
        return SequentialPattern()
    if kind == "strided":
        return StridedPattern()
    if kind == "irregular":
        passes = _require_int(where, fields.get("passes", 1), "passes", 1)
        seed = _require_int(where, fields.get("seed", 0), "seed")
        return IrregularPattern(passes=passes, seed=seed)
    _fail(where, f"unknown pattern kind {kind!r}; expected one of "
                 f"{sorted(_PATTERN_KINDS)}")


class ReplayTrace:
    """A parsed, validated replay trace (see the module docstring)."""

    def __init__(self, document: Dict[str, Any]) -> None:
        if not isinstance(document, dict):
            _fail("document", f"expected a JSON object, got {type(document).__name__}")
        version = document.get("version")
        if version != SCHEMA_VERSION:
            _fail("document", f"unsupported version {version!r}; this reader "
                              f"understands version {SCHEMA_VERSION}")
        meta = document.get("meta")
        if not isinstance(meta, dict):
            _fail("meta", "missing or not an object")
        for field in ("system", "gpu", "link"):
            _require_str("meta", meta.get(field), field)
        self.meta: Dict[str, Any] = dict(meta)
        self.expected: Optional[Dict[str, int]] = None
        expected = meta.get("expected")
        if expected is not None:
            if not isinstance(expected, dict):
                _fail("meta.expected", "must be an object")
            self.expected = {
                field: _require_int("meta.expected", expected.get(field), field)
                for field in _EXPECT_FIELDS
            }
        self.buffers: List[Tuple[str, int, List[List[int]]]] = []
        self._validate_buffers(document.get("buffers"))
        self.ops: List[Dict[str, Any]] = []
        self._validate_ops(document.get("ops"))

    # -- validation ----------------------------------------------------

    def _validate_buffers(self, buffers: Any) -> None:
        if not isinstance(buffers, list) or not buffers:
            _fail("buffers", "missing or empty; replay needs at least one buffer")
        seen = set()
        for index, entry in enumerate(buffers):
            where = f"buffers[{index}]"
            if not isinstance(entry, dict):
                _fail(where, "must be an object")
            name = _require_str(where, entry.get("name"), "name")
            if name in seen:
                _fail(where, f"duplicate buffer name {name!r}")
            seen.add(name)
            nbytes = _require_int(where, entry.get("nbytes"), "nbytes", 1)
            spans = entry.get("spans", [])
            if not isinstance(spans, list):
                _fail(where, "spans must be a list of [offset, length] pairs")
            clean_spans: List[List[int]] = []
            previous_end = -1
            for span in spans:
                if not isinstance(span, (list, tuple)) or len(span) != 2:
                    _fail(where, f"bad span {span!r}; expected [offset, length]")
                offset, length = span
                _check_span(where, offset, length, nbytes)
                if offset <= previous_end:
                    _fail(where, "spans must be sorted and non-overlapping")
                previous_end = offset + length - 1
                clean_spans.append([offset, length])
            self.buffers.append((name, nbytes, clean_spans))

    def _validate_ops(self, ops: Any) -> None:
        if not isinstance(ops, list):
            _fail("ops", "missing or not a list")
        buffer_sizes = {name: nbytes for name, nbytes, _ in self.buffers}
        async_ids = set()
        last_time = 0.0
        for index, op in enumerate(ops):
            where = f"ops[{index}]"
            if not isinstance(op, dict):
                _fail(where, "must be an object")
            kind = op.get("op")
            if kind not in _OP_KINDS:
                _fail(where, f"unknown op kind {kind!r}; expected one of "
                             f"{sorted(_OP_KINDS)}")
            where = f"ops[{index}] ({kind})"
            when = op.get("t")
            if when is not None:
                if not isinstance(when, (int, float)) or isinstance(when, bool):
                    _fail(where, f"t must be a number, got {when!r}")
                if when < 0:
                    _fail(where, f"negative time {when}")
                if when < last_time:
                    _fail(where, f"out-of-order time {when} (previous op at "
                                 f"{last_time})")
                last_time = float(when)
            if kind in _ASYNC_OPS:
                op_id = _require_int(where, op.get("id", index), "id")
                if op_id in async_ids:
                    _fail(where, f"duplicate op id {op_id}")
                async_ids.add(op_id)
            getattr(self, f"_check_{kind}")(where, op, buffer_sizes, async_ids)
            self.ops.append(op)

    def _buffer_nbytes(self, where: str, op: Dict, sizes: Dict[str, int]) -> int:
        name = _require_str(where, op.get("buffer"), "buffer")
        if name not in sizes:
            _fail(where, f"unknown buffer {name!r}; not declared in the "
                         f"buffer table or a prior malloc")
        return sizes[name]

    def _check_measure(self, where, op, sizes, ids) -> None:
        pass

    def _check_stream(self, where, op, sizes, ids) -> None:
        _require_str(where, op.get("stream"), "stream")

    def _check_malloc(self, where, op, sizes, ids) -> None:
        name = _require_str(where, op.get("buffer"), "buffer")
        if name in sizes:
            _fail(where, f"buffer {name!r} already exists")
        sizes[name] = _require_int(where, op.get("nbytes"), "nbytes", 1)

    def _check_free(self, where, op, sizes, ids) -> None:
        name = _require_str(where, op.get("buffer"), "buffer")
        if sizes.pop(name, None) is None:
            _fail(where, f"free of unknown buffer {name!r}")

    def _check_host_access(self, where, op, sizes, ids) -> None:
        nbytes = self._buffer_nbytes(where, op, sizes)
        mode = op.get("mode")
        if mode not in _ACCESS_MODES:
            _fail(where, f"unknown access mode {mode!r}; expected one of "
                         f"{sorted(_ACCESS_MODES)}")
        _check_span(where, op.get("offset", 0), op.get("length", nbytes), nbytes)

    def _check_prefetch(self, where, op, sizes, ids) -> None:
        nbytes = self._buffer_nbytes(where, op, sizes)
        _require_str(where, op.get("dest"), "dest")
        _check_span(where, op.get("offset", 0), op.get("length", nbytes), nbytes)

    def _check_discard(self, where, op, sizes, ids) -> None:
        nbytes = self._buffer_nbytes(where, op, sizes)
        mode = op.get("mode")
        if mode not in _DISCARD_MODES:
            _fail(where, f"unknown discard mode {mode!r}; expected one of "
                         f"{sorted(_DISCARD_MODES)}")
        _check_span(where, op.get("offset", 0), op.get("length", nbytes), nbytes)

    def _check_kernel(self, where, op, sizes, ids) -> None:
        _require_str(where, op.get("kernel"), "kernel")
        duration = op.get("duration")
        if duration is not None:
            if not isinstance(duration, (int, float)) or isinstance(duration, bool):
                _fail(where, f"duration must be a number or null, got {duration!r}")
            if duration < 0:
                _fail(where, f"negative duration {duration}")
        _require_int(where, op.get("waves", 1), "waves", 1)
        accesses = op.get("accesses", [])
        if not isinstance(accesses, list):
            _fail(where, "accesses must be a list")
        for access in accesses:
            if not isinstance(access, dict):
                _fail(where, f"bad access entry {access!r}")
            nbytes = self._buffer_nbytes(where, access, sizes)
            mode = access.get("mode")
            if mode not in _ACCESS_MODES:
                _fail(where, f"unknown access mode {mode!r}")
            _check_span(
                where, access.get("offset", 0), access.get("length", nbytes), nbytes
            )
            _pattern_from_fields(where, access.get("pattern", {"kind": "sequential"}))

    def _check_kernel_raw(self, where, op, sizes, ids) -> None:
        _require_str(where, op.get("kernel"), "kernel")
        duration = op.get("duration")
        if not isinstance(duration, (int, float)) or isinstance(duration, bool):
            _fail(where, f"duration must be a number, got {duration!r}")
        if duration < 0:
            _fail(where, f"negative duration {duration}")

    def _check_memcpy(self, where, op, sizes, ids) -> None:
        if op.get("direction") not in _DIRECTIONS:
            _fail(where, f"unknown direction {op.get('direction')!r}; expected "
                         f"one of {sorted(_DIRECTIONS)}")
        _require_int(where, op.get("nbytes"), "nbytes", 1)
        reason = op.get("reason", TransferReason.MEMCPY.value)
        if reason not in _REASONS:
            _fail(where, f"unknown reason {reason!r}")

    def _check_sync(self, where, op, sizes, ids) -> None:
        stream = op.get("stream")
        if stream is not None and (not isinstance(stream, str) or not stream):
            _fail(where, f"stream must be a name or null, got {stream!r}")

    def _check_wait(self, where, op, sizes, ids) -> None:
        _require_str(where, op.get("stream"), "stream")
        on = op.get("on")
        _require_int(where, on, "on")
        if on not in ids:
            _fail(where, f"wait on id {on} which is not an earlier async op")

    # -- serialization -------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        """The canonical JSON-serializable form of this trace."""
        return {
            "version": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "buffers": [
                {"name": name, "nbytes": nbytes, "spans": spans}
                for name, nbytes, spans in self.buffers
            ],
            "ops": list(self.ops),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=1)


# ----------------------------------------------------------------------
# converters
# ----------------------------------------------------------------------


#: One program-channel record as the converter takes it:
#: ``(record id, name, simulated seconds, args)``.
_ProgramRecord = Tuple[int, str, float, Dict[str, Any]]


def _program_to_replay(
    records: List[_ProgramRecord], dropped: int, where: str, hint: str
) -> ReplayTrace:
    """Lift program-channel records, in record order, into a replay trace.

    Both front ends hand over records whose ``args`` are their own
    copies; the converter pops fields from them.  ``where`` names the
    front end in errors and ``hint`` says how to get program records.
    """
    if dropped:
        _fail(where, f"{dropped} records were dropped (max_records "
                     "truncation); replay needs the full op stream")
    if not records:
        _fail(where, f"no program-channel records; {hint}")
    meta: Dict[str, Any] = {}
    buffers: List[Dict[str, Any]] = []
    ops: List[Dict[str, Any]] = []
    for record_id, name, when, args in records:
        if name == "experiment":
            meta.update(args)
        elif name == "buffer":
            buffers.append(
                {
                    "name": args.get("buffer"),
                    "nbytes": args.get("nbytes"),
                    "spans": args.get("spans", []),
                }
            )
        elif name == "totals":
            meta["expected"] = args
        else:
            args.pop("functional", None)
            if name == "stream":
                # create_stream records the new stream's name as "name"
                args["stream"] = args.pop("name", None)
            op = {"op": name, "t": when}
            if name in _ASYNC_OPS:
                op["id"] = record_id
            op.update(args)
            ops.append(op)
    if not meta:
        _fail(where, "program channel has no experiment record")
    return ReplayTrace(
        {"version": SCHEMA_VERSION, "meta": meta, "buffers": buffers, "ops": ops}
    )


def chrome_trace_to_replay(chrome: Dict[str, Any]) -> ReplayTrace:
    """Derive a replay trace from a ``repro trace`` Chrome export.

    The export must contain the ``program`` channel (category
    ``program``) that :func:`repro.harness.tracerun.trace_point`
    records; traces truncated by ``max_records`` are rejected because a
    partial op stream cannot reproduce the run.
    """
    if not isinstance(chrome, dict) or "traceEvents" not in chrome:
        _fail("chrome export", "not a Chrome trace (no traceEvents)")
    records: List[_ProgramRecord] = []
    for event in chrome["traceEvents"]:
        if event.get("cat") == "program" and event.get("ph") == "i":
            args = dict(event.get("args") or {})
            record_id = args.pop("id")
            records.append(
                (record_id, event.get("name"), event.get("ts", 0.0) / 1e6, args)
            )
    records.sort(key=lambda record: record[0])
    return _program_to_replay(
        records,
        chrome.get("otherData", {}).get("dropped_records", 0),
        "chrome export",
        "re-export the trace with `repro trace`",
    )


def tracer_to_replay(tracer) -> ReplayTrace:
    """Derive a replay trace straight from a tracer's program records.

    The same trace as ``chrome_trace_to_replay(tracer.to_chrome_trace())``
    without building the Chrome dict or hashing the timeline; an op's
    ``t`` is the record's simulated seconds rather than ``ts / 1e6``.
    The tracer's records are left untouched.
    """
    records: List[_ProgramRecord] = [
        (record_id, record[2], record[4], dict(record[5] or {}))
        for record_id, record in enumerate(tracer.events)
        if record[0] == "i" and record[3] == "program"
    ]
    return _program_to_replay(
        records,
        tracer.dropped,
        "tracer",
        "install the tracer through simulate() before the run",
    )


def _format_pattern(pattern: Dict[str, Any]) -> str:
    if pattern.get("kind") == "irregular":
        return f"irregular:{pattern.get('passes', 1)}:{pattern.get('seed', 0)}"
    return str(pattern.get("kind", "sequential"))


def _parse_pattern(where: str, text: str) -> Dict[str, Any]:
    if text in ("", "sequential"):
        return {"kind": "sequential"}
    if text == "strided":
        return {"kind": "strided"}
    if text.startswith("irregular"):
        parts = text.split(":")
        if len(parts) != 3:
            _fail(where, f"bad pattern {text!r}; expected irregular:<passes>:<seed>")
        try:
            return {"kind": "irregular", "passes": int(parts[1]), "seed": int(parts[2])}
        except ValueError:
            _fail(where, f"bad pattern {text!r}; passes/seed must be integers")
    _fail(where, f"unknown pattern {text!r}")


def _format_extra(pairs: Dict[str, Any]) -> str:
    return ";".join(f"{key}={value}" for key, value in pairs.items() if value is not None)


def _parse_extra(where: str, text: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    if not text:
        return fields
    for item in text.split(";"):
        if "=" not in item:
            _fail(where, f"bad extra field {item!r}; expected key=value")
        key, value = item.split("=", 1)
        fields[key] = value
    return fields


def replay_trace_to_csv(trace: ReplayTrace) -> str:
    """Serialize ``trace`` to the documented CSV form."""
    out = io.StringIO()
    out.write(_CSV_MAGIC + "\n")
    meta_bits = []
    for key in _META_FIELDS:
        value = trace.meta.get(key)
        if value is not None:
            meta_bits.append(f"{key}={value}")
    if meta_bits:
        out.write("#meta " + " ".join(meta_bits) + "\n")
    if trace.expected:
        out.write(
            "#expect "
            + " ".join(f"{k}={trace.expected[k]}" for k in _EXPECT_FIELDS)
            + "\n"
        )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)

    def row(**fields: Any) -> None:
        writer.writerow(["" if fields.get(c) is None else fields.get(c)
                         for c in _CSV_COLUMNS])

    for name, nbytes, spans in trace.buffers:
        row(op="buffer", buffer=name, length=nbytes)
        for offset, length in spans:
            row(op="span", buffer=name, offset=offset, length=length)
    for op in trace.ops:
        kind = op["op"]
        t = op.get("t")
        if kind == "measure":
            row(t=t, op=kind)
        elif kind == "stream":
            row(t=t, op=kind, stream=op["stream"])
        elif kind == "malloc":
            row(t=t, op=kind, buffer=op["buffer"], length=op["nbytes"])
        elif kind == "free":
            row(t=t, op=kind, buffer=op["buffer"])
        elif kind == "host_access":
            row(t=t, op=kind, buffer=op["buffer"], mode=op["mode"],
                offset=op.get("offset", 0), length=op.get("length"))
        elif kind == "prefetch":
            row(t=t, op=kind, id=op["id"], stream=op.get("stream"),
                buffer=op["buffer"], mode=op["dest"],
                offset=op.get("offset", 0), length=op.get("length"))
        elif kind == "discard":
            row(t=t, op=kind, id=op["id"], stream=op.get("stream"),
                buffer=op["buffer"], mode=op["mode"],
                offset=op.get("offset", 0), length=op.get("length"))
        elif kind == "kernel":
            row(t=t, op=kind, id=op["id"], stream=op.get("stream"),
                buffer=op["kernel"], offset=op.get("waves", 1),
                value=op.get("duration"),
                extra=_format_extra(
                    {"flops": op.get("flops", 0.0), "device": op.get("device")}
                ))
            for access in op.get("accesses", []):
                row(op="access", buffer=access["buffer"], mode=access["mode"],
                    offset=access.get("offset", 0), length=access.get("length"),
                    value=_format_pattern(access.get("pattern", {})))
        elif kind == "kernel_raw":
            row(t=t, op=kind, id=op.get("id"), stream=op.get("stream"),
                buffer=op["kernel"], value=op["duration"])
        elif kind == "memcpy":
            row(t=t, op=kind, id=op.get("id"), stream=op.get("stream"),
                mode=op["direction"], length=op["nbytes"],
                value=op.get("reason"),
                extra=_format_extra({"device": op.get("device")}))
        elif kind == "sync":
            row(t=t, op=kind, stream=op.get("stream"))
        elif kind == "wait":
            row(t=t, op=kind, stream=op["stream"], value=op["on"])
    return out.getvalue()


def _csv_int(where: str, text: str, field: str) -> Optional[int]:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        _fail(where, f"{field} must be an integer, got {text!r}")


def _csv_float(where: str, text: str, field: str) -> Optional[float]:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        _fail(where, f"{field} must be a number, got {text!r}")


def replay_trace_from_csv(text: str) -> ReplayTrace:
    """Parse the documented CSV form into a validated :class:`ReplayTrace`."""
    meta: Dict[str, Any] = {}
    lines = text.splitlines()
    if not lines or lines[0].strip() != _CSV_MAGIC:
        _fail("csv", f"first line must be {_CSV_MAGIC!r}")
    data_lines: List[Tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#meta ") or stripped.startswith("#expect "):
            pragma, _, rest = stripped.partition(" ")
            target = meta if pragma == "#meta" else meta.setdefault("expected", {})
            fields = _META_FIELDS if pragma == "#meta" else None
            for item in rest.split():
                if "=" not in item:
                    _fail(f"line {lineno}", f"bad pragma field {item!r}")
                key, value = item.split("=", 1)
                if fields is not None:
                    caster = fields.get(key, str)
                    try:
                        target[key] = caster(value)
                    except ValueError:
                        _fail(f"line {lineno}", f"bad {key} value {value!r}")
                else:
                    target[key] = _csv_int(f"line {lineno}", value, key)
            continue
        if stripped.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if not data_lines:
        _fail("csv", "no data rows")
    header_lineno, header_line = data_lines[0]
    header = next(csv.reader([header_line]))
    if tuple(header) != _CSV_COLUMNS:
        _fail(f"line {header_lineno}", f"header must be "
                                       f"{','.join(_CSV_COLUMNS)}")
    buffers: List[Dict[str, Any]] = []
    buffer_index = {}
    ops: List[Dict[str, Any]] = []
    for lineno, line in data_lines[1:]:
        where = f"line {lineno}"
        cells = next(csv.reader([line]))
        if len(cells) != len(_CSV_COLUMNS):
            _fail(where, f"expected {len(_CSV_COLUMNS)} columns, got {len(cells)}")
        rec = dict(zip(_CSV_COLUMNS, cells))
        kind = rec["op"]
        t = _csv_float(where, rec["t"], "t")
        op_id = _csv_int(where, rec["id"], "id")
        offset = _csv_int(where, rec["offset"], "offset")
        length = _csv_int(where, rec["length"], "length")
        extra = _parse_extra(where, rec["extra"])
        if kind == "buffer":
            entry = {"name": rec["buffer"], "nbytes": length, "spans": []}
            buffers.append(entry)
            buffer_index[rec["buffer"]] = entry
        elif kind == "span":
            entry = buffer_index.get(rec["buffer"])
            if entry is None:
                _fail(where, f"span for undeclared buffer {rec['buffer']!r}")
            entry["spans"].append([offset, length])
        elif kind == "measure":
            ops.append({"op": kind, "t": t})
        elif kind == "stream":
            ops.append({"op": kind, "t": t, "stream": rec["stream"]})
        elif kind == "malloc":
            ops.append({"op": kind, "t": t, "buffer": rec["buffer"],
                        "nbytes": length})
        elif kind == "free":
            ops.append({"op": kind, "t": t, "buffer": rec["buffer"]})
        elif kind == "host_access":
            ops.append({"op": kind, "t": t, "buffer": rec["buffer"],
                        "mode": rec["mode"], "offset": offset, "length": length})
        elif kind == "prefetch":
            ops.append({"op": kind, "t": t, "id": op_id, "stream": rec["stream"],
                        "buffer": rec["buffer"], "dest": rec["mode"],
                        "offset": offset, "length": length})
        elif kind == "discard":
            ops.append({"op": kind, "t": t, "id": op_id, "stream": rec["stream"],
                        "buffer": rec["buffer"], "mode": rec["mode"],
                        "offset": offset, "length": length})
        elif kind == "kernel":
            op = {"op": kind, "t": t, "id": op_id, "stream": rec["stream"],
                  "kernel": rec["buffer"], "waves": offset or 1,
                  "duration": _csv_float(where, rec["value"], "duration"),
                  "flops": float(extra.get("flops", 0.0)),
                  "device": extra.get("device"), "accesses": []}
            ops.append(op)
        elif kind == "access":
            if not ops or ops[-1]["op"] != "kernel":
                _fail(where, "access row must follow a kernel row")
            ops[-1]["accesses"].append(
                {"buffer": rec["buffer"], "mode": rec["mode"],
                 "offset": offset, "length": length,
                 "pattern": _parse_pattern(where, rec["value"])})
        elif kind == "kernel_raw":
            ops.append({"op": kind, "t": t, "id": op_id, "stream": rec["stream"],
                        "kernel": rec["buffer"],
                        "duration": _csv_float(where, rec["value"], "duration")})
        elif kind == "memcpy":
            ops.append({"op": kind, "t": t, "id": op_id, "stream": rec["stream"],
                        "direction": rec["mode"], "nbytes": length,
                        "reason": rec["value"] or TransferReason.MEMCPY.value,
                        "device": extra.get("device")})
        elif kind == "sync":
            ops.append({"op": kind, "t": t, "stream": rec["stream"] or None})
        elif kind == "wait":
            ops.append({"op": kind, "t": t, "stream": rec["stream"],
                        "on": _csv_int(where, rec["value"], "on")})
        else:
            _fail(where, f"unknown op kind {kind!r}")
    expected = meta.pop("expected", None)
    if expected is not None:
        meta["expected"] = expected
    return ReplayTrace(
        {"version": SCHEMA_VERSION, "meta": meta, "buffers": buffers, "ops": ops}
    )


def load_replay_trace(path: str) -> ReplayTrace:
    """Load a replay trace from ``path``.

    JSON documents are detected by content: a Chrome export (has
    ``traceEvents``) is converted on the fly via
    :func:`chrome_trace_to_replay`; a replay document (has ``version``)
    is validated directly.  Anything else is parsed as replay CSV.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"replay trace: {path}: bad JSON: {exc}") from None
        if "traceEvents" in document:
            return chrome_trace_to_replay(document)
        return ReplayTrace(document)
    return replay_trace_from_csv(text)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


class ReplayWorkload:
    """Re-enqueue a validated replay trace against a fresh simulator.

    Split-phase like every other workload: :meth:`setup_program`
    allocates the buffer table and populates the recorded spans
    (CPU-only, quiescent, snapshottable); :meth:`body_program` replays
    the op stream.  Buffers and streams are re-looked-up from the
    runtime inside the body, so forked-snapshot replays work unchanged.
    """

    def __init__(self, trace: ReplayTrace) -> None:
        self.trace = trace

    @property
    def app_bytes(self) -> int:
        declared = self.trace.meta.get("app_bytes")
        if isinstance(declared, int) and declared > 0:
            return declared
        return sum(nbytes for _, nbytes, _ in self.trace.buffers)

    def setup_program(self):
        buffers = self.trace.buffers

        def setup(cuda):
            for name, nbytes, spans in buffers:
                buffer = cuda.malloc_managed(nbytes, name)
                for offset, length in spans:
                    yield from cuda.host_write(
                        buffer, buffer.subrange(offset, length)
                    )

        return setup

    def body_program(self, system: Optional[str] = None):
        """The replay body; ``system`` is accepted for protocol parity
        but ignored — the recorded ops already encode every discard and
        prefetch decision the original system made."""
        ops = self.trace.ops

        def body(cuda):
            buffers = {b.name: b for b in cuda.managed_buffers()}
            streams = {s.name: s for s in cuda.streams()}
            handles: Dict[int, Any] = {}

            def stream_of(name: Optional[str]):
                if name is None:
                    return None
                stream = streams.get(name)
                if stream is None:
                    stream = cuda.create_stream(name)
                    streams[name] = stream
                return stream

            def rng_of(buffer, op):
                offset = op.get("offset", 0)
                length = op.get("length", buffer.nbytes)
                if offset == 0 and length == buffer.nbytes:
                    return None  # reproduce the original whole-buffer call
                return buffer.subrange(offset, length)

            for op in ops:
                kind = op["op"]
                if kind == "measure":
                    cuda.begin_measurement()
                elif kind == "stream":
                    streams[op["stream"]] = cuda.create_stream(op["stream"])
                elif kind == "malloc":
                    buffer = cuda.malloc_managed(op["nbytes"], op["buffer"])
                    buffers[op["buffer"]] = buffer
                elif kind == "free":
                    cuda.free(buffers.pop(op["buffer"]))
                elif kind == "host_access":
                    buffer = buffers[op["buffer"]]
                    mode = AccessMode(op["mode"])
                    access = {
                        AccessMode.READ: cuda.host_read,
                        AccessMode.WRITE: cuda.host_write,
                        AccessMode.READWRITE: cuda.host_update,
                    }[mode]
                    yield from access(buffer, rng_of(buffer, op))
                elif kind == "prefetch":
                    buffer = buffers[op["buffer"]]
                    handles[op["id"]] = cuda.prefetch_async(
                        buffer,
                        destination=op["dest"],
                        rng=rng_of(buffer, op),
                        stream=stream_of(op.get("stream")),
                    )
                elif kind == "discard":
                    buffer = buffers[op["buffer"]]
                    handles[op["id"]] = cuda.discard_async(
                        buffer,
                        rng=rng_of(buffer, op),
                        mode=op["mode"],
                        stream=stream_of(op.get("stream")),
                    )
                elif kind == "kernel":
                    handles[op["id"]] = cuda.launch(
                        self._kernel_spec(op, buffers),
                        stream=stream_of(op.get("stream")),
                        device=op.get("device"),
                    )
                elif kind == "kernel_raw":
                    process = cuda.launch_raw(
                        op["kernel"], op["duration"],
                        stream=stream_of(op.get("stream")),
                    )
                    if "id" in op and op["id"] is not None:
                        handles[op["id"]] = process
                elif kind == "memcpy":
                    process = cuda.memcpy_async(
                        op["nbytes"],
                        TransferDirection(op["direction"]),
                        stream=stream_of(op.get("stream")),
                        reason=TransferReason(
                            op.get("reason", TransferReason.MEMCPY.value)
                        ),
                        device=op.get("device"),
                    )
                    if "id" in op and op["id"] is not None:
                        handles[op["id"]] = process
                elif kind == "sync":
                    yield from cuda.synchronize(stream_of(op.get("stream")))
                elif kind == "wait":
                    stream_of(op["stream"]).wait_for(handles[op["on"]])
            yield from cuda.synchronize()

        return body

    @staticmethod
    def _kernel_spec(op: Dict[str, Any], buffers: Dict[str, Any]):
        from repro.cuda.kernel import BufferAccess, KernelSpec

        accesses = []
        for access in op.get("accesses", []):
            buffer = buffers[access["buffer"]]
            offset = access.get("offset", 0)
            length = access.get("length", buffer.nbytes)
            rng = None
            if offset != 0 or length != buffer.nbytes:
                rng = buffer.subrange(offset, length)
            accesses.append(
                BufferAccess(
                    buffer,
                    AccessMode(access["mode"]),
                    rng=rng,
                    pattern=_pattern_from_fields(
                        "kernel access",
                        access.get("pattern", {"kind": "sequential"}),
                    ),
                )
            )
        return KernelSpec(
            name=op["kernel"],
            accesses=accesses,
            flops=op.get("flops", 0.0) or 0.0,
            duration=op.get("duration"),
            waves=op.get("waves", 1),
        )


# ----------------------------------------------------------------------
# running and checking
# ----------------------------------------------------------------------


# The per-buffer decomposition moved to repro.analysis (the single
# source of truth for byte attribution); re-exported here because the
# replay CLI and its callers grew up importing it from this module.
from repro.analysis.attribution import (  # noqa: E402  (re-export)
    per_buffer_transfer_totals,
)


def run_replay(trace: ReplayTrace, keep_transfer_records: bool = False):
    """Simulate ``trace`` end to end; returns ``(result, runtime)``.

    The GPU, link, scale, oversubscription ratio and driver defaults are
    reconstructed from ``trace.meta`` so the replayed run sees exactly
    the environment of the recorded one.  With ``keep_transfer_records``
    the runtime retains per-transfer records for
    :func:`per_buffer_transfer_totals`.  Raises
    :class:`~repro.errors.OutOfMemoryError` when the replayed program
    does not fit.
    """
    from repro.driver.config import UvmDriverConfig
    from repro.harness.pipeline import GPU_FACTORIES, LINK_FACTORIES, Plan, simulate
    from repro.harness.runner import out_of_memory

    meta = trace.meta
    if meta["gpu"] not in GPU_FACTORIES:
        _fail("meta", f"unknown gpu {meta['gpu']!r}; expected one of "
                      f"{sorted(GPU_FACTORIES)}")
    if meta["link"] not in LINK_FACTORIES:
        _fail("meta", f"unknown link {meta['link']!r}; expected one of "
                      f"{sorted(LINK_FACTORIES)}")
    scale = meta.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        _fail("meta", f"bad scale {scale!r}")
    ratio = meta.get("ratio", 1.0)
    if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) or ratio <= 0:
        _fail("meta", f"bad ratio {ratio!r}")
    workload = ReplayWorkload(trace)
    plan = Plan(
        setup=workload.setup_program(),
        body=workload.body_program(),
        system=meta["system"],
        config_label=meta.get("config", "replay"),
        app_bytes=workload.app_bytes,
        ratio=float(ratio),
        gpu=GPU_FACTORIES[meta["gpu"]]().scaled(scale),
        make_link=LINK_FACTORIES[meta["link"]],
        driver_config=(
            UvmDriverConfig(keep_transfer_records=True)
            if keep_transfer_records
            else None
        ),
    )
    result, runtime = simulate(plan)
    if result is None:
        raise out_of_memory(plan)
    return result, runtime


def check_replay(trace: ReplayTrace, runtime) -> Dict[str, Any]:
    """Compare a replayed runtime's totals against ``meta.expected``.

    Returns ``{"checked": bool, "ok": bool, "expected": ..., "actual":
    ...}``; ``checked`` is False when the trace carries no expected
    totals.
    """
    traffic = runtime.driver.traffic
    actual = {
        "bytes_h2d": traffic.bytes_h2d,
        "bytes_d2h": traffic.bytes_d2h,
        "transfer_count": traffic.transfer_count,
    }
    if trace.expected is None:
        return {"checked": False, "ok": True, "expected": None, "actual": actual}
    return {
        "checked": True,
        "ok": actual == trace.expected,
        "expected": dict(trace.expected),
        "actual": actual,
    }
