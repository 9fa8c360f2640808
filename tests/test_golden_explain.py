"""Golden digests of ``repro explain`` reports.

Ten small points (scale 1/32, UVM-opt and both discard systems, micro
and DL workloads) are explained end to end, and the sha256 of each
report's canonical JSON (``sort_keys``) must equal the one committed in
``tests/golden/explain_digests.json``; so must the digest of one
``check_discard_inference`` result.  A report covers the attribution
(per buffer, phase and reason), the waste decomposition with its dead
writebacks and thrash re-fetches, the inferred opportunities and their
replayed savings, so any change to how ``explain`` counts a byte fails
here.  When a change is intentional, regenerate and commit::

    PYTHONPATH=src python -m pytest tests/test_golden_explain.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.analysis.explain import check_discard_inference, explain_point
from repro.harness.sweep import SweepPoint

EXPLAIN_DIGESTS = pathlib.Path(__file__).parent / "golden" / "explain_digests.json"

SCALE = 1 / 32


def _micro(workload: str, system: str) -> SweepPoint:
    return SweepPoint(workload=workload, system=system, ratio=2.0, scale=SCALE)


def _dl(network: str, system: str, batch_size: int) -> SweepPoint:
    return SweepPoint(
        workload=f"dl:{network}", system=system, batch_size=batch_size,
        scale=SCALE, batches=2,
    )


#: Golden name -> the point whose ``explain_point`` report it pins.
EXPLAIN_POINTS = {
    "fir_uvmopt": _micro("fir", "UVM-opt"),
    "reduction_uvmopt": _micro("reduction", "UVM-opt"),
    # Inferred discards that cost bytes: negative estimated savings.
    "knn_uvmopt": _micro("knn", "UVM-opt"),
    "bfs_discard": _micro("bfs", "UvmDiscard"),
    "kmeans_discardlazy": _micro("kmeans", "UvmDiscardLazy"),
    "stencil_discardlazy": _micro("stencil", "UvmDiscardLazy"),
    "vgg16_uvmopt_bs100": _dl("vgg16", "UVM-opt", 100),
    "darknet19_discard_bs360": _dl("darknet19", "UvmDiscard", 360),
    "resnet53_discardlazy_bs90": _dl("resnet53", "UvmDiscardLazy", 90),
    "rnn_discardlazy_bs25": _dl("rnn", "UvmDiscardLazy", 25),
}

#: The ``repro explain --check`` result pinned next to the reports.
CHECK_NAME = "check_stencil_discardlazy"


def _digest(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def reports():
    return {name: explain_point(point) for name, point in EXPLAIN_POINTS.items()}


@pytest.fixture(scope="module")
def check():
    return check_discard_inference(
        _micro("stencil", "UVM-opt"),
        _micro("stencil", "UvmDiscardLazy"),
        "UvmDiscardLazy",
    )


def _compare(name: str, actual: str, update_golden: bool) -> None:
    committed = (
        json.loads(EXPLAIN_DIGESTS.read_text()) if EXPLAIN_DIGESTS.exists() else {}
    )
    if update_golden:
        committed[name] = actual
        EXPLAIN_DIGESTS.write_text(
            json.dumps(committed, indent=2, sort_keys=True) + "\n"
        )
    assert committed.get(name) == actual, (
        f"{name}: explain output drifted from "
        "tests/golden/explain_digests.json; if the change is intentional, "
        "rerun with --update-golden and commit the new digest"
    )


@pytest.mark.parametrize("name", sorted(EXPLAIN_POINTS))
def test_explain_report_digest(name, reports, update_golden):
    _compare(name, _digest(reports[name]), update_golden)


def test_check_discard_inference_digest(check, update_golden):
    assert check["ok"]
    _compare(CHECK_NAME, _digest(check), update_golden)


def test_points_exercise_every_waste_cause(reports):
    """The pinned reports must not be vacuous: together they credit dead
    writebacks and thrash re-fetches, and price nonzero savings."""
    wastes = [report["attribution"]["waste"] for report in reports.values()]
    assert any(waste["dead_writeback_bytes"] for waste in wastes)
    assert any(waste["thrash_refetch_bytes"] for waste in wastes)
    assert any(
        any(report["estimated_savings"].values())
        for report in reports.values()
        if report["estimated_savings"]
    )
