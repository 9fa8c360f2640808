"""Serialize-once snapshot transport: blobs, stores, single-flight.

Four layers, mirroring ``tests/test_snapshot_fork.py``:

- **pickle parity** — the snapshot invariants hold for pickling: the
  ``_PENDING`` sentinel and ``NULL_TRACER`` unpickle to their module
  singletons, finished processes shed generators, live processes
  refuse loudly,
- **differential identity** — a blob-forked run must be byte-identical
  (``ExperimentResult`` and :func:`~repro.chaos.trace_digest`) to a
  deepcopy-forked run and a cold run, across the fig5 networks, a
  chaos schedule, and the vectorized-bitmap driver paths; all three
  run the measured body through :func:`repro.harness.pipeline.simulate`,
- **stores** — :class:`~repro.engine.snapshot.BlobStore` honours its
  byte budget with LRU eviction, refuses oversize blobs, counts every
  published build in ``builds.log``, and keeps builds single-flight
  across claimants,
- **end to end** — two stores opened on one directory (two workers)
  build a prefix once and serve identical bytes; a multi-job
  :func:`~repro.harness.sweep.run_sweep` stays byte-identical to a
  serial one while building each distinct prefix exactly once.

As in ``test_snapshot_fork.py`` there is deliberately no tolerance
anywhere: the blob transport is advertised as a pure wall-clock
optimization, so a single diverging bit is a semantics bug.
"""

from __future__ import annotations

import copy
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import trace_digest
from repro.engine.core import Environment, _PENDING
from repro.engine.snapshot import (
    BlobStore,
    EngineSnapshot,
    resolve_prefix_snapshot,
)
from repro.errors import SnapshotError
from repro.harness.pipeline import build_prefix, plan_for, simulate
from repro.harness.sweep import SweepPoint, execute_point, run_sweep
from repro.instrument.trace import NULL_TRACER

UVM_SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
FIG5_NETWORKS = ("vgg16", "darknet19", "resnet53", "rnn")

CHAOS_ITEMS = (
    ("seed", 7),
    ("link_degrade_interval", 5),
    ("transfer_fault_interval", 9),
    ("batch_reorder_probability", 0.3),
)


# ----------------------------------------------------------------------
# pickle parity
# ----------------------------------------------------------------------


class TestPickleParity:
    def test_pending_sentinel_identity_survives_pickle(self):
        blob = pickle.dumps(_PENDING, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(blob) is _PENDING
        boxed = pickle.loads(pickle.dumps({"k": _PENDING}))
        assert boxed["k"] is _PENDING

    def test_null_tracer_identity_survives_pickle(self):
        assert pickle.loads(pickle.dumps(NULL_TRACER)) is NULL_TRACER
        boxed = pickle.loads(pickle.dumps([NULL_TRACER, NULL_TRACER]))
        assert boxed[0] is NULL_TRACER and boxed[1] is NULL_TRACER

    def test_live_process_refuses_pickle(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        with pytest.raises(SnapshotError):
            pickle.dumps(process)

    def test_finished_process_pickles_without_generator(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        process = env.process(proc())
        env.run()
        clone = pickle.loads(pickle.dumps(process))
        assert clone.value == "done"
        assert clone._generator is None

    def test_snapshot_blob_roundtrip(self):
        env = Environment()

        def proc():
            yield env.timeout(2.5)

        env.process(proc())
        env.run()
        snapshot = EngineSnapshot(env)
        clone = EngineSnapshot.from_blob(snapshot.to_blob())
        assert clone.to_blob() == snapshot.to_blob()
        assert clone.payload_nbytes() == len(snapshot.to_blob())
        forked = clone.fork()
        assert forked.now == env.now
        assert forked is not env

    def test_snapshot_refuses_unpicklable_quiescent_graph(self):
        class Opaque:
            def snapshot_precheck(self):
                return None

            def __reduce__(self):
                raise TypeError("cannot pickle Opaque")

        with pytest.raises(SnapshotError):
            EngineSnapshot(Opaque())


# ----------------------------------------------------------------------
# differential identity: blob fork == deepcopy fork == cold
# ----------------------------------------------------------------------


class _DeepcopySnapshot:
    """Forks a prefix runtime with ``copy.deepcopy`` instead of a blob."""

    def __init__(self, runtime):
        self.runtime = runtime

    def fork(self):
        return copy.deepcopy(self.runtime)


def _body_on(snapshot, point):
    """Run ``point``'s measured body on a fork of ``snapshot``; return
    the result dict and the full observable trace digest."""
    result, runtime = simulate(plan_for(point), snapshot)
    return result.to_dict(), trace_digest(runtime)


def _assert_blob_matches_deepcopy_and_cold(point):
    prefix = build_prefix(plan_for(point))
    deep_result, deep_digest = _body_on(_DeepcopySnapshot(prefix), point)
    blob_result, blob_digest = _body_on(EngineSnapshot(prefix), point)
    assert blob_result == deep_result
    assert blob_digest == deep_digest
    cold = execute_point(point)
    assert cold is not None
    assert blob_result == cold.to_dict()


class TestDifferentialIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        network=st.sampled_from(FIG5_NETWORKS),
        system=st.sampled_from(UVM_SYSTEMS),
    )
    def test_fig5_networks(self, network, system):
        _assert_blob_matches_deepcopy_and_cold(
            SweepPoint(
                workload=f"dl:{network}",
                system=system,
                batch_size=8,
                scale=0.03125,
                batches=4,
            )
        )

    @settings(max_examples=6, deadline=None)
    @given(
        workload=st.sampled_from(("fir", "radix", "hashjoin")),
        system=st.sampled_from(UVM_SYSTEMS),
        ratio=st.sampled_from((1.0, 2.0)),
    )
    def test_micro_vectorized_bitmap_driver(self, workload, system, ratio):
        # vectorized=True is the bitmap fast path; pin it explicitly so
        # the differential keeps covering it if the default ever flips.
        _assert_blob_matches_deepcopy_and_cold(
            SweepPoint(
                workload,
                system,
                ratio=ratio,
                scale=0.01,
                driver={"vectorized": True},
            )
        )

    def test_chaos_schedule(self):
        _assert_blob_matches_deepcopy_and_cold(
            SweepPoint(
                workload="fir",
                system="UvmDiscard",
                ratio=2.0,
                scale=0.01,
                chaos=CHAOS_ITEMS,
            )
        )

    def test_chaos_fork_matches_cold_chaos_run(self):
        # Cold chaos runs go through the same pipeline, which installs
        # the injector at the same boundary as on a fork.
        point = SweepPoint(
            workload="fir",
            system="UvmDiscard",
            ratio=2.0,
            scale=0.01,
            chaos=CHAOS_ITEMS,
        )
        prefix = build_prefix(plan_for(point))
        blob_result, _ = _body_on(EngineSnapshot(prefix), point)
        cold = execute_point(point)
        assert cold is not None
        assert blob_result == cold.to_dict()


# ----------------------------------------------------------------------
# BlobStore: budget, eviction, single-flight, build accounting
# ----------------------------------------------------------------------


class TestBlobStore:
    def test_fetch_or_claim_then_publish_then_hit(self, tmp_path):
        store = BlobStore(tmp_path)
        key = ("fir", "gen4", 0.01)
        blob, claim = store.fetch_or_claim(key)
        assert blob is None and claim is not None
        assert claim.publish(b"payload")
        other = BlobStore(tmp_path)
        got, claim2 = other.fetch_or_claim(key)
        assert got == b"payload" and claim2 is None
        assert store.get(key) == b"payload"
        assert not (tmp_path / f"{BlobStore.key_id(key)}.lock").exists()

    def test_blob_from_other_source_is_a_miss_and_rebuilt(
        self, tmp_path, monkeypatch
    ):
        """A blob pickled by other code (different source fingerprint)
        is never handed to this code: its key id differs."""
        import repro.engine.snapshot as snapshot_module

        key = ("fir", "gen4", 0.01)
        monkeypatch.setattr(
            snapshot_module, "source_fingerprint", lambda: "0" * 64
        )
        _, claim = BlobStore(tmp_path).fetch_or_claim(key)
        assert claim.publish(b"old class layout")
        monkeypatch.undo()
        store = BlobStore(tmp_path)
        blob, claim = store.fetch_or_claim(key)
        assert blob is None and claim is not None
        assert claim.publish(b"current class layout")
        assert store.get(key) == b"current class layout"
        assert sorted(store.build_counts().values()) == [1, 1]

    def test_abandon_releases_the_lock(self, tmp_path):
        store = BlobStore(tmp_path)
        key = ("radix",)
        _, claim = store.fetch_or_claim(key)
        claim.abandon()
        assert store.get(key) is None
        # The next claimant can build.
        blob, claim2 = store.fetch_or_claim(key)
        assert blob is None and claim2 is not None
        claim2.publish(b"x")
        assert store.get(key) == b"x"

    def test_lru_eviction_under_budget(self, tmp_path):
        store = BlobStore(tmp_path, max_bytes=100)
        keys = [("k", i) for i in range(3)]
        now = time.time()
        for i, key in enumerate(keys):
            _, claim = store.fetch_or_claim(key)
            claim.publish(b"x" * 40)
            # Deterministic recency without sleeping between publishes.
            path = store._blob_path(store.key_id(key))
            import os

            os.utime(path, (now + i, now + i))
        store._evict_over_budget()
        assert store.get(keys[0]) is None  # oldest evicted
        assert store.get(keys[1]) == b"x" * 40
        assert store.get(keys[2]) == b"x" * 40
        assert store.evicted >= 1
        stats = store.stats()
        assert stats["bytes"] <= 100

    def test_hit_refreshes_recency(self, tmp_path):
        import os

        store = BlobStore(tmp_path, max_bytes=100)
        a, b, c = ("a",), ("b",), ("c",)
        now = time.time()
        for i, key in enumerate((a, b)):
            _, claim = store.fetch_or_claim(key)
            claim.publish(b"x" * 40)
            path = store._blob_path(store.key_id(key))
            os.utime(path, (now - 100 + i, now - 100 + i))
        assert store.get(a) == b"x" * 40  # touch: a is now newest
        _, claim = store.fetch_or_claim(c)
        claim.publish(b"x" * 40)  # evicts to fit: b goes, a stays
        assert store.get(a) is not None
        assert store.get(b) is None

    def test_oversize_blob_refused(self, tmp_path):
        store = BlobStore(tmp_path, max_bytes=10)
        _, claim = store.fetch_or_claim(("big",))
        assert not claim.publish(b"x" * 11)
        assert store.rejected_oversize == 1
        assert store.get(("big",)) is None
        # The lock was still released.
        assert not (tmp_path / f"{BlobStore.key_id(('big',))}.lock").exists()

    def test_builds_log_counts_one_line_per_publish(self, tmp_path):
        store = BlobStore(tmp_path)
        for key in (("a",), ("b",)):
            _, claim = store.fetch_or_claim(key)
            claim.publish(b"x")
        counts = store.build_counts()
        assert counts == {
            BlobStore.key_id(("a",)): 1,
            BlobStore.key_id(("b",)): 1,
        }
        stats = store.stats()
        assert stats["builds_total"] == 2
        assert stats["builds_distinct"] == 2

    def test_waiter_times_out_to_private_build(self, tmp_path):
        store = BlobStore(tmp_path, wait_seconds=0.05, poll_seconds=0.005)
        key = ("held",)
        _, claim = store.fetch_or_claim(key)  # lock held, never published
        blob, fallback_claim = store.fetch_or_claim(key)
        assert blob is None and fallback_claim is None
        assert store.wait_timeouts == 1
        claim.abandon()

    def test_stale_lock_is_broken_and_stolen(self, tmp_path):
        import os

        store = BlobStore(
            tmp_path, wait_seconds=5.0, stale_lock_seconds=0.01
        )
        key = ("dead-owner",)
        lock = tmp_path / f"{BlobStore.key_id(key)}.lock"
        lock.write_text("99999\n")
        past = time.time() - 60
        os.utime(lock, (past, past))
        blob, claim = store.fetch_or_claim(key)
        assert blob is None and claim is not None
        assert store.lock_steals == 1
        claim.publish(b"rebuilt")
        assert store.get(key) == b"rebuilt"

    def test_waiter_sees_published_blob(self, tmp_path):
        store = BlobStore(tmp_path, wait_seconds=5.0, poll_seconds=0.001)
        key = ("pub",)
        _, claim = store.fetch_or_claim(key)
        got = []

        def waiter():
            got.append(BlobStore(tmp_path, poll_seconds=0.001).fetch_or_claim(key))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        claim.publish(b"shared")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got[0][0] == b"shared" and got[0][1] is None


# ----------------------------------------------------------------------
# the resolve hierarchy + cross-worker sharing
# ----------------------------------------------------------------------


class _Quiescent:
    def __init__(self, tag):
        self.tag = tag

    def snapshot_precheck(self):
        return None


class TestResolveHierarchy:
    def test_pool_then_blob_then_build(self, tmp_path):
        # The store answers before build() does, from any store opened
        # on the same directory; without a store every resolve builds.
        store = BlobStore(tmp_path)
        key = ("k",)
        built = []

        def build():
            built.append(True)
            return _Quiescent("x")

        snap1, origin1 = resolve_prefix_snapshot(key, build, store)
        assert origin1 == "built" and len(built) == 1
        snap2, origin2 = resolve_prefix_snapshot(key, build, store)
        assert origin2 == "blob" and len(built) == 1
        snap3, origin3 = resolve_prefix_snapshot(key, build, BlobStore(tmp_path))
        assert origin3 == "blob" and len(built) == 1
        assert snap1.to_blob() == snap2.to_blob() == snap3.to_blob()
        snap4, origin4 = resolve_prefix_snapshot(key, build)
        assert origin4 == "built" and len(built) == 2
        assert snap4.to_blob() == snap1.to_blob()

    def test_build_failure_resolves_all_claims(self, tmp_path):
        store = BlobStore(tmp_path)
        key = ("k",)
        snapshot, origin = resolve_prefix_snapshot(key, lambda: None, store)
        assert snapshot is None and origin is None
        assert not list(tmp_path.glob("*.lock"))
        # The store accepts a retry (no stranded claim).
        snapshot, origin = resolve_prefix_snapshot(
            key, lambda: _Quiescent("x"), store
        )
        assert origin == "built"

    def test_two_worker_pools_share_one_build(self, tmp_path):
        from repro.serve.worker import execute_point_pooled

        point = SweepPoint(
            workload="dl:vgg16",
            system="UvmDiscard",
            batch_size=8,
            scale=0.03125,
            batches=4,
        )
        store_a, store_b = BlobStore(tmp_path), BlobStore(tmp_path)
        cold, source_a = execute_point_pooled(point, store_a)
        assert source_a == "cold"
        warm, source_b = execute_point_pooled(point, store_b)
        assert source_b == "blob"  # cross-"worker" hit, no second build
        again, source_a2 = execute_point_pooled(point, store_a)
        assert source_a2 == "blob"
        assert cold == warm == again
        assert store_a.stats()["builds_total"] == 1

    def test_multi_job_sweep_builds_each_prefix_once(self, tmp_path):
        points = [
            SweepPoint(
                workload="dl:vgg16",
                system=system,
                batch_size=8,
                scale=0.03125,
                batches=4,
            )
            for system in UVM_SYSTEMS
        ]
        store_dir = tmp_path / "blobs"
        report = run_sweep(points, jobs=2, blob_store_dir=store_dir)
        serial = run_sweep(points, jobs=1)
        assert report.to_json() == serial.to_json()
        assert report.blob_stats is not None
        assert report.blob_stats["builds_total"] == 1
        assert report.blob_stats["builds_distinct"] == 1
        counts = BlobStore(store_dir).build_counts()
        assert list(counts.values()) == [1]
