"""Property tests for the warm snapshot pool behind ``repro serve``.

Hypothesis drives random admit/fork/evict/clear sequences against a
:class:`~repro.engine.snapshot.SnapshotPool` and checks the three pool
invariants documented on the class:

1. the summed bytes of admitted entries never exceed ``max_bytes``
   (LRU eviction, oversize refusal) — verified against an exact
   OrderedDict model after every operation,
2. a live (non-quiescent) simulation is never admitted, so the pool can
   never hand out a fork of one,
3. eviction is transparent: whether or not a prefix is evicted between
   requests, :func:`~repro.serve.worker.execute_point_pooled` serves
   byte-identical outcomes, matching a cold
   :func:`~repro.harness.sweep.execute_point` baseline.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.snapshot import EngineSnapshot, SnapshotPool
from repro.errors import SnapshotError
from repro.harness.sweep import SweepPoint, execute_point, outcome_to_dict, prefix_key
from repro.serve.worker import execute_point_pooled


class _Quiescent:
    """A fake quiescent simulation root: deep-copyable, trivially sized."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def snapshot_precheck(self) -> None:
        return None


class _Live:
    """A fake mid-flight simulation: the precheck always refuses."""

    def snapshot_precheck(self) -> None:
        raise SnapshotError("live process frames on the event heap")


KEYS = st.sampled_from([("fir", 0.03125), ("radix", 0.03125), ("dl", 1.0), ("hj", 2.0)])

#: One pool operation.  Sizes are declared (``nbytes=``) so the model
#: can track byte accounting exactly; ``live`` admits use a root whose
#: quiescence precheck fails.
OPS = st.one_of(
    st.tuples(st.just("admit"), KEYS, st.integers(0, 140), st.booleans()),
    st.tuples(st.just("fork"), KEYS),
    st.tuples(st.just("evict"), KEYS),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(max_bytes=st.integers(0, 300), ops=st.lists(OPS, max_size=40))
def test_budget_and_lru_match_exact_model(max_bytes, ops):
    """After every operation the pool equals an exact LRU model and the
    byte budget holds."""
    pool = SnapshotPool(max_bytes=max_bytes)
    model: "OrderedDict[tuple, int]" = OrderedDict()
    admits = rejected_live = rejected_oversize = 0

    for op in ops:
        if op[0] == "admit":
            _, key, size, live = op
            root = _Live() if live else _Quiescent(str(key))
            admitted = pool.admit(key, root, nbytes=size)
            if live:
                assert not admitted
                rejected_live += 1
            elif size > max_bytes:
                assert not admitted
                rejected_oversize += 1
            else:
                assert admitted
                admits += 1
                model.pop(key, None)
                model[key] = size
                while sum(model.values()) > max_bytes:
                    model.popitem(last=False)
        elif op[0] == "fork":
            _, key = op
            forked = pool.fork(key)
            if key in model:
                assert forked is not None
                model.move_to_end(key)
            else:
                assert forked is None
        elif op[0] == "evict":
            _, key = op
            assert pool.evict(key) == (model.pop(key, None) is not None)
        else:
            pool.clear()
            model.clear()

        # The invariant under test, checked at every step.
        assert pool.nbytes <= max_bytes
        assert pool.nbytes == sum(model.values())
        assert len(pool) == len(model)
        assert list(pool._entries) == list(model)

    stats = pool.stats()
    assert stats["admitted"] == admits
    assert stats["rejected_live"] == rejected_live
    assert stats["rejected_oversize"] == rejected_oversize
    assert stats["bytes"] == pool.nbytes


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(KEYS, st.booleans()),  # (key, admit a live root?)
        min_size=1,
        max_size=20,
    )
)
def test_live_roots_are_never_admitted_nor_forked(ops):
    """A non-quiescent root is refused, and a key that only ever saw
    live admits always misses — a live snapshot can never be forked."""
    pool = SnapshotPool(max_bytes=1 << 20)
    ever_quiescent = set()
    for key, live in ops:
        root = _Live() if live else _Quiescent(str(key))
        admitted = pool.admit(key, root, nbytes=64)
        assert admitted == (not live)
        if not live:
            ever_quiescent.add(key)
    for key, _ in ops:
        forked = pool.fork(key)
        if key in ever_quiescent:
            assert isinstance(forked, _Quiescent)
        else:
            assert forked is None
    assert pool.stats()["rejected_live"] == sum(1 for _, live in ops if live)


def test_engine_snapshot_constructor_refuses_live_root():
    with pytest.raises(SnapshotError):
        EngineSnapshot(_Live())


def test_forks_are_independent_copies():
    pool = SnapshotPool(max_bytes=1 << 20)
    assert pool.admit(("k",), _Quiescent("original"), nbytes=32)
    first = pool.fork(("k",))
    first.tag = "mutated"
    second = pool.fork(("k",))
    assert second.tag == "original"
    assert first is not second


@settings(max_examples=6, deadline=None)
@given(
    system=st.sampled_from(["UVM-opt", "UvmDiscard"]),
    ratio=st.sampled_from([1.5, 2.0]),
    evict_between=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_eviction_is_transparent_to_served_results(system, ratio, evict_between):
    """Evicting a prefix between requests changes only the pool source
    (cold vs fork), never the served outcome bytes."""
    point = SweepPoint("fir", system, ratio=ratio, scale=0.03125)
    baseline = json.dumps(outcome_to_dict(execute_point(point)), sort_keys=True)
    pool = SnapshotPool(max_bytes=64 << 20)
    key = prefix_key(point)
    warmed = False
    for do_evict in evict_between:
        outcome, source = execute_point_pooled(point, pool)
        assert source == ("fork" if warmed else "cold")
        assert json.dumps(outcome, sort_keys=True) == baseline
        warmed = True
        if do_evict:
            assert pool.evict(key)
            warmed = False
    assert pool.stats()["rejected_live"] == 0
