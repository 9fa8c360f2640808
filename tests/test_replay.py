"""Trace-replay round-trip and schema-validation battery (PR 9).

The headline acceptance criterion of the replay frontend: a ``repro
trace`` export, converted to a replay trace and re-simulated from
scratch, reproduces the original run's migration byte totals exactly —
including the per-buffer decomposition.  The serializers (JSON + CSV)
round-trip losslessly, and malformed input of either form fails with a
clean :class:`TraceFormatError` naming the offending row, never a bare
``KeyError``/``ValueError``.
"""

from __future__ import annotations

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.harness.sweep import SweepPoint
from repro.harness.tracerun import trace_point
from repro.instrument.trace import TraceConfig, Tracer
from repro.workloads.replay import (
    ReplayTrace,
    TraceFormatError,
    check_replay,
    chrome_trace_to_replay,
    load_replay_trace,
    per_buffer_transfer_totals,
    replay_trace_from_csv,
    replay_trace_to_csv,
    run_replay,
    tracer_to_replay,
)

#: A spread of shapes: dense streaming (fir), irregular ping-pong
#: (bfs), lazy discard + prefetch pairing (stencil).
ROUND_TRIP_POINTS = {
    "fir": SweepPoint(workload="fir", system="UvmDiscard", ratio=2.0, scale=0.01),
    "bfs": SweepPoint(workload="bfs", system="UvmDiscard", ratio=2.0, scale=0.03125),
    "stencil": SweepPoint(
        workload="stencil", system="UvmDiscardLazy", ratio=2.0, scale=0.03125
    ),
}


@functools.lru_cache(maxsize=None)
def _traced(label):
    """Trace a point once per session; returns (chrome_dict, result)."""
    result, tracer = trace_point(ROUND_TRIP_POINTS[label])
    assert result is not None
    return tracer.to_chrome_trace(), result


def _strip_none(value):
    """Drop ``None``-valued keys recursively (CSV cannot spell None)."""
    if isinstance(value, dict):
        return {k: _strip_none(v) for k, v in value.items() if v is not None}
    if isinstance(value, list):
        return [_strip_none(v) for v in value]
    return value


# ----------------------------------------------------------------------
# the acceptance criterion: export -> convert -> replay -> same bytes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(ROUND_TRIP_POINTS))
def test_round_trip_reproduces_migration_totals(label):
    chrome, original = _traced(label)
    trace = chrome_trace_to_replay(chrome)
    assert trace.expected is not None, "export carried no totals record"

    replayed, runtime = run_replay(trace, keep_transfer_records=True)
    assert replayed is not None
    check = check_replay(trace, runtime)
    assert check["checked"]
    assert check["ok"], (
        f"{label}: replay diverged from the recorded run: "
        f"expected {check['expected']}, got {check['actual']}"
    )

    # The per-buffer decomposition is complete: every migrated byte is
    # attributed to a buffer and the buckets sum to the driver totals.
    totals = per_buffer_transfer_totals(runtime)
    traffic = runtime.driver.traffic
    assert sum(b["h2d"] for b in totals.values()) == traffic.bytes_h2d
    assert sum(b["d2h"] for b in totals.values()) == traffic.bytes_d2h
    assert "(unknown)" not in totals


@pytest.mark.parametrize("label", sorted(ROUND_TRIP_POINTS))
def test_replay_result_matches_original_traffic(label):
    """The replayed ExperimentResult carries the original's traffic."""
    chrome, original = _traced(label)
    replayed, _ = run_replay(chrome_trace_to_replay(chrome))
    assert replayed.traffic_gb == original.traffic_gb


# ----------------------------------------------------------------------
# serialization round-trips (property-tested; no simulation involved)
# ----------------------------------------------------------------------


@settings(max_examples=9, deadline=None)
@given(label=st.sampled_from(sorted(ROUND_TRIP_POINTS)))
def test_json_round_trip_is_lossless(label):
    chrome, _ = _traced(label)
    trace = chrome_trace_to_replay(chrome)
    reparsed = ReplayTrace(json.loads(trace.to_json()))
    assert reparsed.to_document() == trace.to_document()
    assert reparsed.expected == trace.expected


@settings(max_examples=9, deadline=None)
@given(label=st.sampled_from(sorted(ROUND_TRIP_POINTS)))
def test_csv_round_trip_is_lossless(label):
    chrome, _ = _traced(label)
    trace = chrome_trace_to_replay(chrome)
    reparsed = replay_trace_from_csv(replay_trace_to_csv(trace))
    assert reparsed.expected == trace.expected
    assert reparsed.buffers == trace.buffers
    assert _strip_none(reparsed.ops) == _strip_none(trace.ops)
    for key, value in trace.meta.items():
        if key != "expected" and value is not None and key != "config":
            assert reparsed.meta.get(key) == value, key


def test_load_replay_trace_sniffs_all_three_forms(tmp_path):
    chrome, _ = _traced("fir")
    trace = chrome_trace_to_replay(chrome)

    chrome_path = tmp_path / "export.json"
    chrome_path.write_text(json.dumps(chrome))
    replay_path = tmp_path / "replay.json"
    replay_path.write_text(trace.to_json())
    csv_path = tmp_path / "replay.csv"
    csv_path.write_text(replay_trace_to_csv(trace))

    for path in (chrome_path, replay_path, csv_path):
        loaded = load_replay_trace(str(path))
        assert loaded.expected == trace.expected
        assert len(loaded.ops) == len(trace.ops)
        assert [b[0] for b in loaded.buffers] == [b[0] for b in trace.buffers]


def test_load_replay_trace_rejects_garbage(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(TraceFormatError, match="bad JSON"):
        load_replay_trace(str(bad_json))
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("hello,world\n")
    with pytest.raises(TraceFormatError, match="first line"):
        load_replay_trace(str(bad_csv))


# ----------------------------------------------------------------------
# a hand-written trace is a valid workload (the schema is writable)
# ----------------------------------------------------------------------


def _document():
    """A minimal hand-written replay document per the module docstring."""
    return {
        "version": 1,
        "meta": {
            "workload": "unit",
            "system": "UvmDiscard",
            "gpu": "gtx1070",
            "link": "gen3",
            "scale": 0.05,
            "ratio": 1.0,
        },
        "buffers": [
            {"name": "a", "nbytes": 1 << 20, "spans": [[0, 1 << 20]]},
            {"name": "b", "nbytes": 1 << 20, "spans": []},
        ],
        "ops": [
            {"op": "measure", "t": 0.0},
            {
                "op": "kernel",
                "t": 0.0,
                "id": 1,
                "kernel": "copy",
                "waves": 1,
                "duration": 0.001,
                "accesses": [
                    {"buffer": "a", "mode": "read", "offset": 0,
                     "length": 1 << 20, "pattern": {"kind": "sequential"}},
                    {"buffer": "b", "mode": "write", "offset": 0,
                     "length": 1 << 20, "pattern": {"kind": "sequential"}},
                ],
            },
            {"op": "discard", "t": 0.1, "id": 2, "buffer": "a",
             "mode": "eager", "offset": 0, "length": 1 << 20},
            {"op": "sync", "t": 0.2},
        ],
    }


def test_hand_written_document_replays():
    trace = ReplayTrace(_document())
    result, runtime = run_replay(trace, keep_transfer_records=True)
    assert result is not None
    traffic = runtime.driver.traffic
    # Kernel faults migrate buffer a's populated megabyte to the GPU;
    # the eager discard drops a without any writeback.
    assert traffic.bytes_h2d >= 1 << 20
    assert per_buffer_transfer_totals(runtime)["a"]["d2h"] == 0
    # No expected totals on a hand-written trace: check is a no-op.
    check = check_replay(trace, runtime)
    assert check == {
        "checked": False, "ok": True, "expected": None,
        "actual": check["actual"],
    }


# ----------------------------------------------------------------------
# malformed input fails cleanly (deterministic cases + fuzz)
# ----------------------------------------------------------------------


def _mutate(path, value):
    """A mutator assigning ``value`` at ``path`` into a fresh document."""

    def apply(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return apply


MALFORMED_CASES = {
    "bad_version": (_mutate(["version"], 99), "unsupported version"),
    "missing_system": (_mutate(["meta", "system"], None), "system"),
    "no_buffers": (_mutate(["buffers"], []), "at least one buffer"),
    "bad_va_span": (
        _mutate(["buffers", 0, "spans"], [[0, (1 << 20) + 4096]]),
        "bad VA",
    ),
    "overlapping_spans": (
        _mutate(["buffers", 0, "spans"], [[0, 4096], [4095, 4096]]),
        "sorted and non-overlapping",
    ),
    "negative_time": (_mutate(["ops", 3, "t"], -1.0), "negative time"),
    "out_of_order_time": (_mutate(["ops", 0, "t"], 5.0), "out-of-order"),
    "unknown_op": (_mutate(["ops", 3, "op"], "teleport"), "unknown op kind"),
    "unknown_buffer": (
        _mutate(["ops", 2, "buffer"], "ghost"), "unknown buffer"
    ),
    "bad_discard_mode": (
        _mutate(["ops", 2, "mode"], "sometime"), "unknown discard mode"
    ),
    "duplicate_id": (_mutate(["ops", 2, "id"], 1), "duplicate op id"),
    "negative_duration": (
        _mutate(["ops", 1, "duration"], -0.5), "negative duration"
    ),
    "bad_pattern": (
        _mutate(["ops", 1, "accesses", 0, "pattern"], {"kind": "psychic"}),
        "unknown pattern kind",
    ),
    "bad_access_mode": (
        _mutate(["ops", 1, "accesses", 0, "mode"], "peek"),
        "unknown access mode",
    ),
    "wait_on_unknown_id": (
        _mutate(["ops", 3], {"op": "wait", "t": 0.2, "stream": "s", "on": 77}),
        "not an earlier async op",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_document_raises_trace_format_error(case):
    mutator, match = MALFORMED_CASES[case]
    with pytest.raises(TraceFormatError, match=match):
        ReplayTrace(mutator(_document()))


def test_trace_format_error_is_a_repro_error():
    assert issubclass(TraceFormatError, ReproError)


def test_converter_rejects_truncated_exports():
    chrome, _ = _traced("fir")
    truncated = copy.deepcopy(chrome)
    truncated["otherData"]["dropped_records"] = 3
    with pytest.raises(TraceFormatError, match="dropped"):
        chrome_trace_to_replay(truncated)


def test_converter_rejects_non_chrome_input():
    with pytest.raises(TraceFormatError, match="traceEvents"):
        chrome_trace_to_replay({"hello": 1})


# ----------------------------------------------------------------------
# the two front ends of the converter: a live tracer and a Chrome export
# ----------------------------------------------------------------------

#: A DL point with lazy discards on two streams, and a micro with
#: cross-stream waits, prefetches and both discard modes.
FRONT_END_POINTS = {
    "dl-lazy": SweepPoint(
        workload="dl:vgg16", system="UvmDiscardLazy", batch_size=8, scale=0.03125
    ),
    "stencil": ROUND_TRIP_POINTS["stencil"],
}


@pytest.mark.parametrize("label", sorted(FRONT_END_POINTS))
def test_tracer_front_end_matches_chrome_front_end(label):
    result, tracer = trace_point(FRONT_END_POINTS[label])
    assert result is not None
    digest = tracer.digest()
    direct = tracer_to_replay(tracer)
    assert tracer.digest() == digest, "tracer_to_replay changed the tracer"
    exported = chrome_trace_to_replay(tracer.to_chrome_trace())
    assert tracer.digest() == digest

    kinds = {op["op"] for op in direct.ops}
    assert {"stream", "prefetch", "discard", "kernel", "wait"} <= kinds
    assert sum(op["op"] == "stream" for op in direct.ops) == 2
    assert any(
        op["op"] == "discard" and op["mode"] == "lazy" for op in direct.ops
    )

    assert direct.meta == exported.meta
    assert direct.expected == exported.expected
    assert direct.buffers == exported.buffers
    assert len(direct.ops) == len(exported.ops)
    for ours, theirs in zip(direct.ops, exported.ops):
        assert ours.keys() == theirs.keys()
        for key, value in ours.items():
            if key == "t":
                # Record seconds versus ts / 1e6: equal up to rounding.
                assert value == pytest.approx(theirs["t"])
            else:
                assert value == theirs[key], (ours["op"], key)


def test_tracer_front_end_rejects_truncated_tracers():
    _, tracer = trace_point(ROUND_TRIP_POINTS["fir"], TraceConfig(max_records=50))
    assert tracer.dropped
    with pytest.raises(TraceFormatError, match="tracer: .* dropped"):
        tracer_to_replay(tracer)


def test_tracer_front_end_names_its_own_remedy():
    with pytest.raises(TraceFormatError, match="no program-channel") as info:
        tracer_to_replay(Tracer())
    assert "re-export" not in str(info.value)


_FIELD_POOL = [
    ["meta", "scale"],
    ["meta", "ratio"],
    ["meta", "gpu"],
    ["buffers", 0, "nbytes"],
    ["buffers", 0, "name"],
    ["buffers", 0, "spans"],
    ["ops", 1, "id"],
    ["ops", 1, "waves"],
    ["ops", 1, "duration"],
    ["ops", 1, "accesses"],
    ["ops", 2, "offset"],
    ["ops", 2, "length"],
    ["ops", 2, "t"],
]

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(range(len(_FIELD_POOL))), junk=_JUNK)
def test_fuzzed_documents_fail_cleanly(path, junk):
    """Any single-field corruption either still validates or raises a
    TraceFormatError — never an unwrapped KeyError/TypeError."""
    doc = _mutate(_FIELD_POOL[path], junk)(_document())
    try:
        ReplayTrace(doc)
    except TraceFormatError:
        pass


_CSV_SAFE = st.text(
    alphabet=st.characters(
        min_codepoint=32, max_codepoint=126, blacklist_characters='"'
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(row=_CSV_SAFE, position=st.integers(min_value=0, max_value=20))
def test_fuzzed_csv_rows_fail_cleanly(row, position):
    """Inserting an arbitrary row into a valid CSV either still parses
    or raises a TraceFormatError naming a line number."""
    base = replay_trace_to_csv(ReplayTrace(_document()))
    lines = base.splitlines()
    lines.insert(min(position, len(lines)), row)
    try:
        replay_trace_from_csv("\n".join(lines) + "\n")
    except TraceFormatError as exc:
        assert "replay trace" in str(exc)
