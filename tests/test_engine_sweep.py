"""Tests for :mod:`repro.engine`: the structure cache, the reusable
:class:`~repro.engine.ClusteringEngine`, and the incremental multi-eps sweep.

The contract under test everywhere is **byte-identity**: every engine
answer — cold, warm, mid-sweep, evicted, parallel — must equal the
corresponding one-shot :func:`repro.dbscan` / :func:`repro.approx_dbscan`
call exactly (same clusters, same labels, same core mask).
"""

import numpy as np
import pytest

from repro import ClusteringEngine, StructureCache, approx_dbscan, dbscan
from repro.engine import approx_carry_ok, ascending_order, preunion_pairs
from repro.engine.cache import default_cache, estimate_structure_bytes
from repro.errors import ParameterError
from repro.grid.cells import Grid
from repro.parallel import ParallelConfig
from repro.runtime.memory import estimate_grid_bytes

from .oracles import sweep as sweep_oracle


@pytest.fixture()
def blob_points():
    """Three well-separated Gaussian blobs plus scattered noise (2-D)."""
    rng = np.random.default_rng(7)
    return np.vstack([
        rng.normal((100.0, 100.0), 8.0, size=(120, 2)),
        rng.normal((400.0, 120.0), 10.0, size=(140, 2)),
        rng.normal((250.0, 420.0), 12.0, size=(130, 2)),
        rng.uniform(0.0, 500.0, size=(60, 2)),
    ])


@pytest.fixture()
def blob_points_3d():
    rng = np.random.default_rng(11)
    return np.vstack([
        rng.normal((50.0, 50.0, 50.0), 4.0, size=(90, 3)),
        rng.normal((200.0, 60.0, 180.0), 5.0, size=(90, 3)),
        rng.uniform(0.0, 250.0, size=(40, 3)),
    ])


def assert_identical(engine_result, fresh_result):
    """Byte-identity: clusters, primary labels and core mask all equal."""
    assert engine_result == fresh_result
    assert np.array_equal(engine_result.labels, fresh_result.labels)
    assert np.array_equal(engine_result.core_mask, fresh_result.core_mask)


# --------------------------------------------------------------- unit helpers


class TestSweepHelpers:
    def test_ascending_order_stable(self):
        assert ascending_order([3.0, 1.0, 2.0, 1.0]) == [1, 3, 2, 0]

    def test_ascending_order_rejects_empty(self):
        with pytest.raises(ParameterError):
            ascending_order([])

    def test_ascending_order_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            ascending_order([1.0, 0.0])

    def test_carry_gate(self):
        # eps2 >= eps1 * (1 + rho) is the Theorem 3 sandwich condition.
        assert approx_carry_ok(10.0, 11.0, 0.1)
        assert not approx_carry_ok(10.0, 10.5, 0.1)
        assert approx_carry_ok(10.0, 10.5, 0.001)

    def test_preunion_pairs_are_same_component(self, blob_points):
        prev = dbscan(blob_points, 25.0, 10, algorithm="grid")
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        pairs = preunion_pairs(prev, engine.grid(40.0))
        # Every pair must join cells whose points share a prev cluster.
        labels = prev.labels
        grid = engine.grid(40.0)
        assert pairs.shape[1] == 2 and pairs.dtype == np.int64
        for c1, c2 in pairs.tolist():
            l1 = {int(x) for x in labels[grid.point_cell == c1] if x >= 0}
            l2 = {int(x) for x in labels[grid.point_cell == c2] if x >= 0}
            assert l1 & l2

    @pytest.mark.parametrize("eps_pair", [(25.0, 40.0), (40.0, 40.0), (10.0, 80.0)])
    def test_preunion_pairs_match_row_unique_oracle(self, blob_points, eps_pair):
        # The packed (label, cell id) sort must reproduce the structured-row
        # np.unique formulation element for element, order included.
        prev = dbscan(blob_points, eps_pair[0], 5, algorithm="grid")
        grid = Grid(blob_points, eps_pair[1])
        keys = [tuple(c) for c in grid.cell_coords.tolist()]
        pairs = [(keys[a], keys[b]) for a, b in preunion_pairs(prev, grid).tolist()]
        assert pairs and pairs == sweep_oracle.preunion_pairs(prev, grid)
        # Only the cell layout is read: the adjacency stays unbuilt.
        assert grid._adjacency is None


class TestStructureCache:
    def test_get_or_build_builds_once(self):
        cache = StructureCache()
        calls = []
        for _ in range(3):
            cache.get_or_build(("k",), lambda: calls.append(1) or "v")
        assert calls == [1]
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_keeps_most_recent(self):
        cache = StructureCache(max_entries=2)
        cache.insert(("a",), 1)
        cache.insert(("b",), 2)
        cache.insert(("c",), 3)
        assert ("a",) not in cache
        assert ("b",) in cache and ("c",) in cache
        assert cache.stats()["evictions"] == 1

    def test_byte_cap_evicts_but_keeps_one(self):
        cache = StructureCache(max_mb=0.000001)  # ~1 byte budget
        big = np.zeros(1000, dtype=np.float64)
        cache.insert(("a",), big, nbytes=big.nbytes)
        cache.insert(("b",), big, nbytes=big.nbytes)
        assert len(cache) == 1  # never evicts below one entry

    def test_estimate_bytes_positive(self):
        assert estimate_structure_bytes(np.zeros(10)) > 0
        assert estimate_structure_bytes({"x": np.zeros(10)}) > 0
        assert estimate_structure_bytes(object()) > 0

    def test_estimate_recognises_a_grid(self):
        # A cached grid is charged its own arrays, not the generic
        # points-holder estimate (16nd + 4096), and the charge grows by
        # the cell adjacency once that is built.
        points = np.random.default_rng(3).uniform(0, 50, size=(300, 3))
        grid = Grid(points, 4.0)
        assert estimate_structure_bytes(grid) == grid.nbytes + 512
        cold = grid.nbytes
        grid.warm_neighbors()
        adj = grid.adjacency()
        assert grid.nbytes == (
            cold + adj.indptr.nbytes + adj.indices.nbytes + adj.inner.nbytes
        )

    def test_grid_charge_covers_a_dominant_adjacency(self):
        # 4-D at a coarse eps: every cell has hundreds of neighbour cells,
        # so the CSR adjacency outweighs the per-point arrays, and the
        # engine's cached grid (warmed inside the cached build) is charged
        # for all of it.  (With int32 cell ids the CSR is half its int64
        # size, so eps is coarse enough for it to still dominate.)
        points = np.random.default_rng(5).uniform(0, 100, size=(4000, 4))
        engine = ClusteringEngine(points, cache=StructureCache())
        grid = engine.grid(14.0)
        adj = grid.adjacency()
        adj_bytes = adj.indptr.nbytes + adj.indices.nbytes + adj.inner.nbytes
        assert adj_bytes > estimate_grid_bytes(4000, 4)
        assert estimate_structure_bytes(grid) >= adj_bytes
        assert engine.cache.stats()["estimated_bytes"] >= adj_bytes

    def test_default_cache_is_singleton(self):
        assert default_cache() is default_cache()

    def test_clear(self):
        cache = StructureCache()
        cache.insert(("a",), 1)
        cache.clear()
        assert len(cache) == 0

    def test_set_budget_recaps_live_cache(self):
        cache = StructureCache()
        big = np.zeros(100_000, dtype=np.float64)
        cache.insert(("a",), big, nbytes=big.nbytes)
        cache.insert(("b",), big, nbytes=big.nbytes)
        assert len(cache) == 2
        cache.set_budget(0.000001)  # ~1 byte: evicts down, keeps one
        assert cache.max_mb == 0.000001
        assert len(cache) == 1
        cache.set_budget(None)  # uncapped again
        cache.insert(("c",), big, nbytes=big.nbytes)
        assert len(cache) == 2
        with pytest.raises(ParameterError):
            cache.set_budget(-1.0)

    def test_concurrent_hammering_during_sweep(self, blob_points):
        """Threads hammering the cache mid-sweep must never corrupt it.

        The service hits this shape constantly: executor threads running
        sweeps against a tenant cache while the registry re-caps budgets
        and other requests insert/evict concurrently.  The test passes if
        no thread raises and the engine's sweep results stay byte-
        identical to fresh one-shot runs.
        """
        import threading

        cache = StructureCache(max_entries=8)
        engine = ClusteringEngine(blob_points, cache=cache)
        eps_grid = np.linspace(8.0, 40.0, 5)
        errors = []
        stop = threading.Event()

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    op = rng.integers(0, 4)
                    if op == 0:
                        cache.insert(("junk", seed, int(rng.integers(1e6))),
                                     np.zeros(64), nbytes=512)
                    elif op == 1:
                        cache.stats()
                    elif op == 2:
                        cache.set_budget(float(rng.uniform(0.5, 64.0)))
                    else:
                        cache.get(("junk", seed, 0))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        try:
            results = engine.sweep(eps_grid, 5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors, errors
        for eps, result in zip(eps_grid, results):
            assert_identical(result, dbscan(blob_points, eps, 5))


# ------------------------------------------------------------ engine basics


class TestEngineBasics:
    def test_matches(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        assert engine.matches(blob_points)
        assert engine.matches(blob_points.copy())
        assert not engine.matches(blob_points[:-1])

    def test_warm_call_hits_cache(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        first = engine.dbscan(30.0, 10)
        hits_after_first = first.meta["engine_cache"]["hits"]
        second = engine.dbscan(30.0, 10)
        assert second.meta["engine_cache"]["hits"] > hits_after_first
        assert_identical(second, first)

    def test_engine_matches_fresh_grid(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        for _ in range(2):  # cold then warm
            assert_identical(
                engine.dbscan(30.0, 10), dbscan(blob_points, 30.0, 10, algorithm="grid")
            )

    def test_engine_matches_fresh_approx(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        for _ in range(2):
            assert_identical(
                engine.approx_dbscan(30.0, 10, rho=0.01),
                approx_dbscan(blob_points, 30.0, 10, rho=0.01),
            )

    def test_engine_kdd96_matches(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        via_engine = engine.dbscan(30.0, 10, algorithm="kdd96")
        fresh = dbscan(blob_points, 30.0, 10, algorithm="kdd96")
        assert_identical(via_engine, fresh)
        # KDD96's expansion order is part of its contract.
        assert np.array_equal(
            via_engine.meta["first_labels"], fresh.meta["first_labels"]
        )

    def test_engine_gunawan2d_matches(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        assert_identical(
            engine.dbscan(30.0, 10, algorithm="gunawan2d"),
            dbscan(blob_points, 30.0, 10, algorithm="gunawan2d"),
        )

    def test_engine_3d(self, blob_points_3d):
        engine = ClusteringEngine(blob_points_3d, cache=StructureCache())
        assert_identical(
            engine.dbscan(15.0, 8), dbscan(blob_points_3d, 15.0, 8, algorithm="grid")
        )

    def test_empty_dataset(self):
        engine = ClusteringEngine(np.empty((0, 2)), cache=StructureCache())
        assert engine.dbscan(1.0, 3).n == 0
        assert engine.sweep([1.0, 2.0], 3)[0].n == 0


class TestApiEngineParameter:
    def test_dbscan_engine_kwarg(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        assert_identical(
            dbscan(blob_points, 30.0, 10, engine=engine),
            dbscan(blob_points, 30.0, 10),
        )

    def test_approx_engine_kwarg(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        assert_identical(
            approx_dbscan(blob_points, 30.0, 10, rho=0.01, engine=engine),
            approx_dbscan(blob_points, 30.0, 10, rho=0.01),
        )

    def test_engine_dataset_mismatch(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        with pytest.raises(ParameterError, match="different dataset"):
            dbscan(blob_points[:-1], 30.0, 10, engine=engine)
        with pytest.raises(ParameterError, match="different dataset"):
            approx_dbscan(blob_points[:-1], 30.0, 10, engine=engine)

    def test_engine_checkpoint_conflict(self, blob_points, tmp_path):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        ckpt = str(tmp_path / "c.npz")
        with pytest.raises(ParameterError, match="checkpoint"):
            dbscan(blob_points, 30.0, 10, engine=engine, checkpoint=ckpt)
        with pytest.raises(ParameterError, match="checkpoint"):
            approx_dbscan(blob_points, 30.0, 10, engine=engine, checkpoint=ckpt)


# ------------------------------------------------------------------- sweeps


EPS_GRID = [55.0, 20.0, 35.0, 27.0, 70.0]  # deliberately unsorted


class TestSweepGrid:
    def test_sweep_matches_fresh_runs(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        results = engine.sweep(EPS_GRID, 10)
        assert len(results) == len(EPS_GRID)
        for eps, res in zip(EPS_GRID, results):
            assert_identical(res, dbscan(blob_points, eps, 10, algorithm="grid"))

    def test_sweep_results_in_input_order(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        results = engine.sweep(EPS_GRID, 10)
        for eps, res in zip(EPS_GRID, results):
            assert res.meta["eps"] == eps

    def test_sweep_under_eviction_pressure(self, blob_points):
        # A one-entry cache forces constant eviction mid-sweep; the carry
        # seeds must survive (they travel through hooks, not the cache).
        cache = StructureCache(max_entries=1)
        engine = ClusteringEngine(blob_points, cache=cache)
        results = engine.sweep(EPS_GRID, 10)
        assert cache.stats()["evictions"] > 0
        for eps, res in zip(EPS_GRID, results):
            assert_identical(res, dbscan(blob_points, eps, 10, algorithm="grid"))

    def test_sweep_parallel_matches_serial(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        cfg = ParallelConfig(workers=2, min_points=0)
        results = engine.sweep(EPS_GRID, 10, workers=cfg)
        for eps, res in zip(EPS_GRID, results):
            assert_identical(res, dbscan(blob_points, eps, 10, algorithm="grid"))

    def test_sweep_rejects_unknown_algorithm(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        with pytest.raises(ParameterError, match="sweep supports"):
            engine.sweep(EPS_GRID, 10, algorithm="kdd96")

    def test_sweep_3d(self, blob_points_3d):
        engine = ClusteringEngine(blob_points_3d, cache=StructureCache())
        for eps, res in zip([10.0, 16.0, 24.0], engine.sweep([10.0, 16.0, 24.0], 8)):
            assert_identical(res, dbscan(blob_points_3d, eps, 8, algorithm="grid"))


class TestSweepApprox:
    def test_sweep_matches_fresh_runs(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        results = engine.sweep(EPS_GRID, 10, algorithm="approx", rho=0.01)
        for eps, res in zip(EPS_GRID, results):
            assert_identical(res, approx_dbscan(blob_points, eps, 10, rho=0.01))

    def test_close_spaced_eps_with_large_rho(self, blob_points):
        # Steps closer than a (1 + rho) factor make the preunion carry
        # unsound; the gate must drop it and the outputs stay identical.
        eps_list = [30.0, 30.5, 31.0, 60.0]
        rho = 0.05
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        results = engine.sweep(eps_list, 10, algorithm="approx", rho=rho)
        for eps, res in zip(eps_list, results):
            assert_identical(res, approx_dbscan(blob_points, eps, 10, rho=rho))

    def test_sweep_parallel_matches_fresh(self, blob_points):
        engine = ClusteringEngine(blob_points, cache=StructureCache())
        cfg = ParallelConfig(workers=2, min_points=0)
        results = engine.sweep(EPS_GRID, 10, algorithm="approx", rho=0.01, workers=cfg)
        for eps, res in zip(EPS_GRID, results):
            assert_identical(res, approx_dbscan(blob_points, eps, 10, rho=0.01))


class TestHooksDirect:
    """The reuse seam itself: donated values must never change the output."""

    def test_hooks_warm_grid_and_core_mask(self, blob_points):
        from repro.algorithms.exact_grid import exact_grid_dbscan
        from repro.grid.cells import Grid
        from repro.runtime.pipeline import PipelineHooks

        baseline = exact_grid_dbscan(blob_points, 30.0, 10)
        grid = Grid(np.asarray(blob_points, dtype=np.float64), 30.0)
        hooks = PipelineHooks(grid=grid, core_mask=baseline.core_mask.copy())
        warm = exact_grid_dbscan(blob_points, 30.0, 10, hooks=hooks)
        assert_identical(warm, baseline)

    def test_hooks_reject_wrong_eps_grid(self, blob_points):
        from repro.algorithms.exact_grid import exact_grid_dbscan
        from repro.grid.cells import Grid
        from repro.runtime.pipeline import PipelineHooks

        wrong = Grid(np.asarray(blob_points, dtype=np.float64), 12.0)
        with pytest.raises(ParameterError, match="eps"):
            exact_grid_dbscan(blob_points, 30.0, 10, hooks=PipelineHooks(grid=wrong))

    def test_hooks_engine_conflict(self, blob_points):
        from repro.runtime.pipeline import PipelineHooks

        engine = ClusteringEngine(blob_points, cache=StructureCache())
        with pytest.raises(ParameterError, match="hooks"):
            approx_dbscan(
                blob_points, 30.0, 10, engine=engine, hooks=PipelineHooks()
            )

    def test_on_phase_sees_all_phases(self, blob_points):
        from repro.algorithms.exact_grid import exact_grid_dbscan
        from repro.runtime.pipeline import PipelineHooks

        seen = []
        hooks = PipelineHooks(on_phase=lambda phase, value: seen.append(phase))
        exact_grid_dbscan(blob_points, 30.0, 10, hooks=hooks)
        assert seen == ["grid", "cores", "components", "borders"]

    def test_phase_seconds_in_meta(self, blob_points):
        result = dbscan(blob_points, 30.0, 10, algorithm="grid")
        phases = result.meta["phase_seconds"]
        assert set(phases) == {"grid", "cores", "components", "borders", "result"}
        assert all(v >= 0 for v in phases.values())
