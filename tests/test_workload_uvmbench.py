"""UVMBench-style workload battery (PR 9).

Three layers of proof for the five new categories (BFS, k-means, kNN,
stencil, tree reduction):

- **Functional correctness**: each category's functional variant runs
  real NumPy compute under the simulated memory system, and its output
  is byte-for-byte equal to a plain NumPy reference — under no discard,
  eager discard and lazy discard alike, with the data-integrity oracle
  reporting zero corruption.
- **Chaos oracle**: BFS and k-means run through the differential chaos
  suite under multiple seeds with the :class:`OnlineValidator` checking
  driver invariants at cadence; outputs must still match the fault-free
  reference and no invariant may trip.
- **Harness wiring**: every category resolves through
  ``execute_point`` under all three UVM systems, discard saves traffic
  against UVM-opt where the workload has discardable working set, and
  the analytical fast model refuses the (uncalibrated) new categories
  instead of guessing.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import tiny_gpu

from repro.cuda.runtime import CudaRuntime
from repro.fastmodel import UncalibratedPointError
from repro.harness.sweep import (
    PAPER_MICRO_WORKLOADS,
    UVMBENCH_WORKLOADS,
    SweepPoint,
    execute_point,
)
from repro.workloads.functional import (
    functional_bfs,
    functional_kmeans,
    functional_knn,
    functional_reduction,
    functional_stencil,
)

DISCARD_MODES = [None, "eager", "lazy"]


def run_with(factory, memory_mib=64):
    runtime = CudaRuntime(gpu=tiny_gpu(memory_mib))
    out = {}

    def program(cuda):
        out["result"] = yield from factory(cuda)

    runtime.run(program)
    assert runtime.driver.oracle.corruption_count == 0
    return runtime, out["result"]


def random_csr(rng, num_nodes=256, degree=4):
    """A seeded random adjacency structure in CSR form."""
    counts = rng.integers(0, degree + 1, size=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = rng.integers(0, num_nodes, size=int(indptr[-1]), dtype=np.int64)
    return indptr, indices


def reference_bfs(indptr, indices, source=0):
    num_nodes = indptr.size - 1
    levels = np.full(num_nodes, -1, dtype=np.int32)
    levels[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        nxt = set()
        for node in frontier:
            for neighbor in indices[indptr[node] : indptr[node + 1]]:
                if levels[neighbor] == -1:
                    nxt.add(int(neighbor))
        for node in nxt:
            levels[node] = level + 1
        frontier = sorted(nxt)
        level += 1
    return levels


def reference_kmeans(points, centroids, iterations):
    pts = points.astype(np.float64)
    cent = centroids.astype(np.float64).copy()
    assign = np.zeros(pts.shape[0], dtype=np.int64)
    for _ in range(iterations):
        dist2 = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(dist2, axis=1)
        sums = np.zeros((cent.shape[0], pts.shape[1] + 1), dtype=np.float64)
        np.add.at(sums[:, :-1], assign, pts)
        np.add.at(sums[:, -1], assign, 1.0)
        mask = sums[:, -1] > 0
        cent[mask] = sums[mask, :-1] / sums[mask, -1, None]
    return cent, assign


def reference_knn(refs, queries, k):
    dist2 = ((queries[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(dist2, axis=1, kind="stable")[:, :k]


def reference_stencil(grid, iterations):
    current = grid.astype(np.float64).copy()
    for _ in range(iterations):
        nxt = current.copy()
        nxt[1:-1, 1:-1] = (
            current[1:-1, 1:-1]
            + current[:-2, 1:-1]
            + current[2:, 1:-1]
            + current[1:-1, :-2]
            + current[1:-1, 2:]
        ) / 5.0
        current = nxt
    return current


def reference_reduction(values, fanin):
    data = values.astype(np.float64).ravel().copy()
    while data.size > 1:
        out_len = -(-data.size // fanin)
        pad = out_len * fanin - data.size
        if pad:
            data = np.concatenate([data, np.zeros(pad, dtype=np.float64)])
        data = data.reshape(out_len, fanin).sum(axis=1)
    return data


class TestFunctionalBfs:
    @pytest.mark.parametrize("discard", DISCARD_MODES)
    def test_matches_reference(self, discard, rng):
        indptr, indices = random_csr(rng, num_nodes=512, degree=6)
        _, levels = run_with(
            lambda cuda: functional_bfs(cuda, indptr, indices, discard=discard)
        )
        assert np.array_equal(levels, reference_bfs(indptr, indices))

    def test_disconnected_nodes_stay_unreached(self):
        # Node 3 has no in-edges and no out-edges.
        indptr = np.array([0, 2, 3, 3, 3], dtype=np.int64)
        indices = np.array([1, 2, 2], dtype=np.int64)
        _, levels = run_with(lambda cuda: functional_bfs(cuda, indptr, indices))
        assert levels.tolist() == [0, 1, 1, -1]

    def test_rejects_bad_source(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        with pytest.raises(ValueError, match="source"):

            def program(cuda):
                yield from functional_bfs(
                    cuda,
                    np.array([0, 1], dtype=np.int64),
                    np.array([0], dtype=np.int64),
                    source=7,
                )

            runtime.run(program)

    def test_oversubscribed_traversal_still_correct(self, rng):
        """Eviction churn during the traversal never corrupts levels."""
        indptr, indices = random_csr(rng, num_nodes=1 << 15, degree=16)
        _, levels = run_with(
            lambda cuda: functional_bfs(cuda, indptr, indices), memory_mib=8
        )
        assert np.array_equal(levels, reference_bfs(indptr, indices))


class TestFunctionalKMeans:
    @pytest.mark.parametrize("discard", DISCARD_MODES)
    def test_matches_reference(self, discard, rng):
        points = rng.normal(size=(512, 3))
        centroids = points[:5].copy()
        _, (cent, assign) = run_with(
            lambda cuda: functional_kmeans(
                cuda, points, centroids, iterations=3, discard=discard
            )
        )
        ref_cent, ref_assign = reference_kmeans(points, centroids, 3)
        assert np.array_equal(cent, ref_cent)
        assert np.array_equal(assign, ref_assign)

    def test_single_iteration_keeps_assignments_undiscarded(self, rng):
        """With one iteration the assignment vector is the output and
        must never be discarded (it is host-read at the end)."""
        points = rng.normal(size=(64, 2))
        _, (_, assign) = run_with(
            lambda cuda: functional_kmeans(
                cuda, points, points[:3].copy(), iterations=1
            )
        )
        _, ref_assign = reference_kmeans(points, points[:3], 1)
        assert np.array_equal(assign, ref_assign)

    def test_rejects_dim_mismatch(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        with pytest.raises(ValueError, match="dims"):

            def program(cuda):
                yield from functional_kmeans(
                    cuda, np.zeros((4, 3)), np.zeros((2, 2))
                )

            runtime.run(program)


class TestFunctionalKnn:
    @pytest.mark.parametrize("discard", DISCARD_MODES)
    def test_matches_reference(self, discard, rng):
        refs = rng.normal(size=(128, 4))
        queries = rng.normal(size=(64, 4))
        _, result = run_with(
            lambda cuda: functional_knn(
                cuda, refs, queries, k=5, batches=4, discard=discard
            )
        )
        assert np.array_equal(result, reference_knn(refs, queries, 5))

    def test_duplicate_distances_break_ties_stably(self):
        # Three identical reference points: stable argsort keeps index order.
        refs = np.zeros((3, 2))
        queries = np.zeros((2, 2))
        _, result = run_with(
            lambda cuda: functional_knn(cuda, refs, queries, k=3, batches=1)
        )
        assert result.tolist() == [[0, 1, 2], [0, 1, 2]]

    def test_rejects_uneven_batches(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        with pytest.raises(ValueError, match="batches"):

            def program(cuda):
                yield from functional_knn(
                    cuda, np.zeros((4, 2)), np.zeros((5, 2)), k=1, batches=2
                )

            runtime.run(program)


class TestFunctionalStencil:
    @pytest.mark.parametrize("discard", DISCARD_MODES)
    def test_matches_reference(self, discard, rng):
        grid = rng.normal(size=(33, 17))
        _, result = run_with(
            lambda cuda: functional_stencil(
                cuda, grid, iterations=4, discard=discard
            )
        )
        assert np.array_equal(result, reference_stencil(grid, 4))

    def test_boundary_copies_through(self, rng):
        grid = rng.normal(size=(8, 8))
        _, result = run_with(lambda cuda: functional_stencil(cuda, grid, 3))
        assert np.array_equal(result[0], grid[0])
        assert np.array_equal(result[-1], grid[-1])
        assert np.array_equal(result[:, 0], grid[:, 0])
        assert np.array_equal(result[:, -1], grid[:, -1])

    def test_rejects_non_2d(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        with pytest.raises(ValueError, match="2-D"):

            def program(cuda):
                yield from functional_stencil(cuda, np.zeros(16))

            runtime.run(program)


class TestFunctionalReduction:
    @pytest.mark.parametrize("discard", DISCARD_MODES)
    @pytest.mark.parametrize("size", [1, 7, 64, 1000])
    def test_matches_reference(self, discard, size, rng):
        values = rng.normal(size=size)
        _, result = run_with(
            lambda cuda: functional_reduction(
                cuda, values, fanin=8, discard=discard
            )
        )
        assert np.array_equal(result, reference_reduction(values, 8))

    @pytest.mark.parametrize("fanin", [2, 3, 16])
    def test_odd_fanins(self, fanin, rng):
        values = rng.normal(size=100)
        _, result = run_with(
            lambda cuda: functional_reduction(cuda, values, fanin=fanin)
        )
        assert np.array_equal(result, reference_reduction(values, fanin))

    def test_rejects_tiny_fanin(self):
        runtime = CudaRuntime(gpu=tiny_gpu())
        with pytest.raises(ValueError, match="fanin"):

            def program(cuda):
                yield from functional_reduction(cuda, np.ones(4), fanin=1)

            runtime.run(program)


class TestChaosOracle:
    """Satellite 3: validator-at-cadence chaos runs on BFS and k-means."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_bfs_kmeans_survive_chaos(self, seed):
        from repro.chaos import run_chaos_suite

        report = run_chaos_suite(
            seed=seed, workloads=["bfs", "kmeans"], cadence=64
        )
        assert report.ok, "\n".join(report.summary_lines())
        for result in report.results:
            assert result.outputs_match, (
                f"{result.workload} (seed {seed}): chaos output diverged "
                "from the fault-free reference"
            )
            assert result.trace_reproducible, (
                f"{result.workload} (seed {seed}): chaos repeat not "
                "byte-identical"
            )
            assert result.violations == 0
            assert result.checks > 0, "validator never ran"
            assert result.injected_actions > 0, "chaos injected nothing"


class TestHarnessWiring:
    @pytest.mark.parametrize("workload", UVMBENCH_WORKLOADS)
    @pytest.mark.parametrize(
        "system", ["UVM-opt", "UvmDiscard", "UvmDiscardLazy"]
    )
    def test_resolves_under_every_uvm_system(self, workload, system):
        point = SweepPoint(
            workload=workload, system=system, ratio=2.0, scale=0.01
        )
        result = execute_point(point)
        assert result is not None
        assert result.traffic_gb > 0

    @pytest.mark.parametrize("workload", UVMBENCH_WORKLOADS)
    def test_discard_saves_traffic_at_oversubscription(self, workload):
        base = SweepPoint(
            workload=workload, system="UVM-opt", ratio=2.0, scale=0.01
        )
        uvm = execute_point(base)
        discard = execute_point(
            SweepPoint(workload=workload, system="UvmDiscard", ratio=2.0, scale=0.01)
        )
        assert uvm is not None and discard is not None
        assert discard.traffic_gb <= uvm.traffic_gb, (
            f"{workload}: discard moved more data than UVM-opt "
            f"({discard.traffic_gb} > {uvm.traffic_gb} GB)"
        )

    @pytest.mark.parametrize("workload", UVMBENCH_WORKLOADS)
    def test_fast_model_refuses_uncalibrated_categories(self, workload):
        point = SweepPoint(
            workload=workload,
            system="UvmDiscard",
            ratio=2.0,
            scale=0.125,
            mode="fast",
        )
        with pytest.raises(UncalibratedPointError, match=workload):
            execute_point(point)

    def test_memory_deadlock_is_an_oom_outcome(self):
        """At ratio 3.5 a prefetch stream and a kernel's fault service
        each pin blocks, then wait for a frame the other holds: the
        point is OOM, like any configuration that does not fit."""
        point = SweepPoint("stencil", "UvmDiscard", ratio=3.5, scale=0.03125)
        assert execute_point(point) is None

    def test_registry_split_is_consistent(self):
        from repro.harness.sweep import MICRO_WORKLOADS

        assert set(PAPER_MICRO_WORKLOADS).isdisjoint(UVMBENCH_WORKLOADS)
        assert tuple(MICRO_WORKLOADS) == (
            tuple(PAPER_MICRO_WORKLOADS) + tuple(UVMBENCH_WORKLOADS)
        )

    def test_chaos_catalog_covers_new_categories(self):
        from repro.chaos.catalog import CHAOS_WORKLOADS

        assert set(UVMBENCH_WORKLOADS) <= set(CHAOS_WORKLOADS)
