"""Property test for the shared prefix store behind ``repro serve``.

Eviction is transparent: whether or not a prefix's blob is evicted
between requests, :func:`~repro.serve.worker.execute_point_pooled`
serves byte-identical outcomes, matching a cold
:func:`~repro.harness.sweep.execute_point` baseline.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.snapshot import BlobStore
from repro.harness.sweep import SweepPoint, execute_point, outcome_to_dict
from repro.serve.worker import execute_point_pooled


@settings(max_examples=6, deadline=None)
@given(
    system=st.sampled_from(["UVM-opt", "UvmDiscard"]),
    ratio=st.sampled_from([1.5, 2.0]),
    evict_between=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_eviction_is_transparent_to_served_results(system, ratio, evict_between):
    """Removing a prefix's blob between requests changes only the source
    (cold vs blob), never the served outcome bytes."""
    point = SweepPoint("fir", system, ratio=ratio, scale=0.03125)
    baseline = json.dumps(outcome_to_dict(execute_point(point)), sort_keys=True)
    with tempfile.TemporaryDirectory() as root:
        store = BlobStore(root)
        warmed = False
        builds = 0
        for do_evict in evict_between:
            outcome, source = execute_point_pooled(point, store)
            assert source == ("blob" if warmed else "cold")
            assert json.dumps(outcome, sort_keys=True) == baseline
            builds += not warmed
            warmed = True
            if do_evict:
                for blob in Path(root).glob("*.blob"):
                    blob.unlink()
                warmed = False
        assert store.stats()["builds_total"] == builds
