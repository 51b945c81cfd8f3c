"""Differential oracle for the sharded parallel pipeline.

The parallel executor promises *identical* output to the serial run — not
merely permutation-equivalent clusters but the very same label array (the
stitching forest registers core cells in the serial insertion order, so
``component_labels()`` assigns the same first-appearance ids).  This suite
holds it to that promise on randomized seed-spreader data (d in {2, 3, 5}),
2-D shape datasets, several eps values including near-collapse radii, and
worker counts {1, 2, 4} — and cross-checks everything against the O(n^2)
brute-force oracle, border-point tie-breaking included.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.approx import approx_dbscan
from repro.algorithms.brute import brute_dbscan
from repro.api import dbscan
from repro.data.seed_spreader import seed_spreader
from repro.data.shapes import rings, two_moons
from repro.errors import ParameterError, TimeoutExceeded
from repro.parallel import ParallelConfig, leaked_segments, shard_cells, split_pairs
from repro.parallel import worker as worker_mod
from repro.parallel.executor import as_parallel_config, effective_workers
from repro.runtime.deadline import Deadline

#: Force the pool even on tiny inputs — the whole point is to exercise it.
def forced(workers: int) -> ParallelConfig:
    return ParallelConfig(workers=workers, min_points=0)


#: name -> (points, eps values to test).  Seed-spreader datasets use the
#: paper's generator (vicinity radius 100 on [0, 1e5]^d); the largest eps
#: per dataset is near the collapsing regime where clusters merge.
def _datasets():
    out = {}
    for d, seed in ((2, 31), (3, 32), (5, 33)):
        ds = seed_spreader(400, d, seed=seed)
        out[f"ss{d}d"] = (ds.points, (150.0, 2000.0, 25000.0))
    moons, _ = two_moons(300, noise=0.06, seed=34)
    out["moons"] = (moons, (0.12, 0.3))
    ring_pts, _ = rings(300, noise=0.05, seed=35)
    out["rings"] = (ring_pts, (0.15, 0.5))
    return out


DATASETS = _datasets()
CASES = [(name, eps) for name, (_, epss) in DATASETS.items() for eps in epss]


def _ids(case):
    name, eps = case
    return f"{name}-eps{eps:g}"


def assert_identical(serial, parallel, name):
    """Byte-identical labeling: labels, core mask, and memberships."""
    assert np.array_equal(serial.labels, parallel.labels), f"{name}: labels differ"
    assert np.array_equal(serial.core_mask, parallel.core_mask), f"{name}: core mask differs"
    border = np.flatnonzero(serial.border_mask)
    for idx in border:
        assert serial.memberships_of(int(idx)) == parallel.memberships_of(int(idx)), (
            f"{name}: border point {idx} has different memberships "
            "(tie-breaking across clusters drifted)"
        )


class TestExactDifferentialOracle:
    @pytest.mark.parametrize("case", CASES, ids=_ids)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_and_brute(self, case, workers):
        name, eps = case
        pts, _ = DATASETS[name]
        min_pts = 10
        serial = dbscan(pts, eps, min_pts, workers=1)
        par = dbscan(pts, eps, min_pts, workers=forced(workers))
        assert par.meta["workers"] == min(workers, par.meta["grid_cells"])
        assert_identical(serial, par, f"{name} w={workers}")
        reference = brute_dbscan(pts, eps, min_pts)
        assert par.same_clusters(reference), (
            f"{name} w={workers}: parallel grid disagrees with brute force"
        )
        assert np.array_equal(par.core_mask, reference.core_mask)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_gunawan2d_parallel(self, workers):
        pts, _ = DATASETS["moons"]
        serial = dbscan(pts, 0.12, 10, algorithm="gunawan2d", workers=1)
        par = dbscan(pts, 0.12, 10, algorithm="gunawan2d", workers=forced(workers))
        assert_identical(serial, par, f"gunawan2d w={workers}")

    def test_border_tie_breaking(self):
        # A point exactly within eps of core points of *two* clusters: its
        # primary label and its multi-membership tuple must survive
        # parallelisation bit-for-bit.
        left = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1], [0.05, 0.05], [0.2, 0.0]]
        )
        right = np.array([2.4, 0.0]) - left  # mirrored blob, tips 2.0 apart
        bridge = np.array([[1.2, 0.0]])  # exactly eps from one core of each blob
        pts = np.vstack([left, right, bridge])
        serial = dbscan(pts, 1.0, 6, workers=1)
        par = dbscan(pts, 1.0, 6, workers=forced(2))
        assert serial.n_clusters == 2
        bridge_idx = len(pts) - 1
        assert not serial.core_mask[bridge_idx]
        assert len(serial.memberships_of(bridge_idx)) == 2
        assert_identical(serial, par, "bridge")


class TestApproxDifferentialOracle:
    @pytest.mark.parametrize("case", CASES[:6], ids=_ids)
    @pytest.mark.parametrize("rho", [0.001, 0.1])
    def test_parallel_matches_serial(self, case, rho):
        name, eps = case
        pts, _ = DATASETS[name]
        serial = approx_dbscan(pts, eps, 10, rho=rho, workers=1)
        for workers in (2, 4):
            par = approx_dbscan(pts, eps, 10, rho=rho, workers=forced(workers))
            assert_identical(serial, par, f"approx {name} rho={rho} w={workers}")


class TestConcurrentRuns:
    """Parallel runs issued concurrently from several threads.

    The service's shape: its executor threads each drive their own
    ``workers=2`` run at the same time, so any per-run state kept in a
    module global (rather than in the run's own payload and pool) shows up
    here as crashes or cross-talk between the runs.
    """

    THREADS = 4
    RUNS_PER_THREAD = 6

    def test_concurrent_pooled_runs_match_serial(self):
        points = seed_spreader(20_000, 3, noise_fraction=0.05, seed=41).points
        eps, min_pts = 200.0, 20
        serial = dbscan(points, eps, min_pts, workers=1)
        cfg = ParallelConfig(workers=2, min_points=0)

        def run(_):
            return dbscan(points, eps, min_pts, workers=cfg)

        n_runs = self.THREADS * self.RUNS_PER_THREAD
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # switch threads often to expose races
        try:
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                results = list(pool.map(run, range(n_runs), timeout=600))
        finally:
            sys.setswitchinterval(switch)
        assert len(results) == n_runs
        for i, got in enumerate(results):
            name = f"concurrent run {i}"
            assert got.meta["workers"] == 2, f"{name}: fell back to serial"
            assert np.array_equal(got.labels, serial.labels), f"{name}: labels differ"
            assert np.array_equal(got.core_mask, serial.core_mask), (
                f"{name}: core mask differs"
            )
            for field in ("overflow_points", "overflow_indptr", "overflow_clusters"):
                assert np.array_equal(getattr(got, field), getattr(serial, field)), (
                    f"{name}: {field} differs"
                )
        assert leaked_segments() == []


class TestSerialFallback:
    def test_small_input_falls_back(self):
        pts, (eps, *_rest) = DATASETS["ss3d"]
        # Default min_points (4096) exceeds n=400: the pool must not spawn.
        result = dbscan(pts, eps, 10, workers=4)
        assert result.meta["workers"] == 1
        assert np.array_equal(result.labels, dbscan(pts, eps, 10, workers=1).labels)

    def test_effective_workers(self):
        cfg = ParallelConfig(workers=4, min_points=100)
        assert effective_workers(None, 10**6, 10**5) == 1
        assert effective_workers(cfg, 50, 40) == 1       # below min_points
        assert effective_workers(cfg, 500, 2) == 2       # fewer cells than workers
        assert effective_workers(cfg, 500, 40) == 4

    def test_as_parallel_config(self):
        assert as_parallel_config(1) is None
        assert as_parallel_config(ParallelConfig(workers=1)) is None
        assert as_parallel_config(3).workers == 3
        cfg = ParallelConfig(workers=2, chunk_pairs=7)
        assert as_parallel_config(cfg) is cfg
        with pytest.raises(ParameterError):
            as_parallel_config(0)
        with pytest.raises(ParameterError):
            ParallelConfig(workers=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert as_parallel_config(None).workers == 2
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert as_parallel_config(None) is None

    def test_unsupported_algorithm_guard(self, monkeypatch):
        pts, (eps, *_rest) = DATASETS["ss2d"]
        with pytest.raises(ParameterError):
            dbscan(pts, eps, 10, algorithm="brute", workers=2)
        # The env default must NOT poison non-grid algorithms.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = dbscan(pts[:80], eps, 10, algorithm="brute")
        assert result.n >= 0  # ran without raising


class TestShardHelpers:
    def test_shards_partition_cells(self):
        cells = [(i, j) for i in range(7) for j in range(5)]
        weights = {c: 1 + (c[0] * c[1]) % 3 for c in cells}
        shards = shard_cells(cells, 4, weights)
        assert len(shards) <= 4
        flat = [c for shard in shards for c in shard]
        assert sorted(flat) == sorted(cells)          # exact partition
        assert flat == sorted(cells)                  # contiguous in sort order
        assert all(shard for shard in shards)         # no empty shard

    def test_more_shards_than_cells(self):
        cells = [(0, 0), (0, 1)]
        shards = shard_cells(cells, 8, {c: 1 for c in cells})
        assert [c for s in shards for c in s] == sorted(cells)

    def test_split_pairs_preserves_orientation(self):
        owner = {(0, 0): 0, (0, 1): 0, (5, 5): 1}
        pairs = [((0, 0), (0, 1)), ((5, 5), (0, 1)), ((0, 1), (5, 5))]
        intra, boundary = split_pairs(pairs, owner, 2)
        assert intra[0] == [((0, 0), (0, 1))]
        assert intra[1] == []
        # Boundary pairs keep their original orientation — the approximate
        # edge predicate is direction-sensitive in the don't-care zone.
        assert boundary == [((5, 5), (0, 1)), ((0, 1), (5, 5))]


class TestWorkerGuards:
    def test_worker_deadline_trips(self):
        pts = np.random.default_rng(0).normal(0, 2, size=(300, 2))
        from repro.grid.cells import Grid

        grid = Grid(pts, 1.0)
        worker_mod.init_worker(
            {
                "grid": grid,
                "phase": "cores",
                "time_remaining": 1e-9,
                "memory_limit_mb": None,
                "min_pts": 5,
            }
        )
        try:
            with pytest.raises(TimeoutExceeded):
                worker_mod.cores_task(list(grid.cells.keys()))
        finally:
            worker_mod._CTX = None

    def test_pool_propagates_timeout(self):
        pts = np.random.default_rng(1).normal(0, 3, size=(500, 3))
        from repro.algorithms.exact_grid import exact_grid_dbscan

        with pytest.raises(TimeoutExceeded):
            exact_grid_dbscan(
                pts, 1.0, 6, deadline=Deadline(1e-9), workers=forced(2)
            )

    def test_uninitialised_worker_errors(self):
        assert worker_mod._CTX is None
        with pytest.raises(RuntimeError):
            worker_mod.cores_task([])
