"""Differential oracle + property tests for the staged edge kernel.

The contract under test (see ``repro/core/edgekernel.py``): the staged,
batched edge-resolution kernel must produce labels **byte-identical** to
the reference per-pair loop (``tests/oracles/loops.py``) on every path that
consumes it — serial exact/approx across bcp strategies and rho values,
``workers>1`` pipeline runs, and preunion-seeded sweep steps.  On top of
the end-to-end oracle, the stage certificates are validated directly
against the exact edge list: stage A may accept only true edges, stage B
may reject only non-edges.
"""

from functools import partial

import numpy as np
import pytest

from repro.algorithms.approx import approx_dbscan
from repro.algorithms.exact_grid import exact_grid_dbscan
from repro.core import cellgraph as cg
from repro.core.edgekernel import cell_arrays, classify_pairs
from repro.core.labeling import label_cores
from repro.engine import ClusteringEngine, StructureCache
from repro.grid.cells import Grid
from repro.parallel import ParallelConfig
from repro.runtime.pipeline import PipelineHooks

from .oracles import loops


def _dataset(seed: int, n: int, d: int, eps: float, min_pts: int):
    rng = np.random.default_rng(seed)
    # Half clustered blobs, half background noise: edges of every kind
    # (dense within-blob accepts, far rejects, borderline survivors).
    centers = rng.uniform(0, 100, size=(4, d))
    blob = centers[rng.integers(0, 4, size=n // 2)] + rng.normal(
        0, 3.0, size=(n // 2, d)
    )
    noise = rng.uniform(0, 100, size=(n - n // 2, d))
    points = np.vstack([blob, noise])
    grid = Grid(points, eps)
    core = label_cores(grid, min_pts)
    return grid, core


class TestSerialOracle:
    @pytest.mark.parametrize("strategy", ["auto", "kdtree", "voronoi"])
    def test_exact_staged_matches_loop(self, strategy):
        grid, core = _dataset(1, 900, 2, 7.0, 5)
        staged = cg.exact_components(grid, core, strategy)
        loop = loops.exact_components(grid, core, strategy)
        assert np.array_equal(staged[0], loop[0])
        assert staged[1] == loop[1]

    def test_exact_staged_matches_loop_3d(self):
        grid, core = _dataset(2, 700, 3, 9.0, 4)
        staged = cg.exact_components(grid, core)
        loop = loops.exact_components(grid, core)
        assert np.array_equal(staged[0], loop[0])

    @pytest.mark.parametrize("rho", [0.001, 0.1, 0.5])
    def test_approx_staged_matches_loop(self, rho):
        grid, core = _dataset(3, 900, 2, 7.0, 5)
        staged = cg.approx_components(grid, core, rho)
        loop = loops.approx_components(grid, core, rho)
        assert np.array_equal(staged[0], loop[0])
        assert staged[1] == loop[1]


class TestPreunionOracle:
    def test_seeded_staged_matches_unseeded(self):
        grid, core = _dataset(5, 800, 2, 7.0, 5)
        base = loops.exact_components(grid, core)
        seed = loops.edge_list_exact(grid, core)[::3]
        for components in (cg.exact_components, loops.exact_components):
            seeded = components(grid, core, preunion=seed)
            assert np.array_equal(seeded[0], base[0]), components.__module__
            assert seeded[1] == base[1]

    def test_sweep_carry_byte_identical(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 80, size=(700, 2))
        engine = ClusteringEngine(points, cache=StructureCache())
        for algorithm in ("grid", "approx"):
            swept = engine.sweep([4.0, 6.0, 9.0], 5, algorithm=algorithm, rho=0.05)
            for eps, result in zip([4.0, 6.0, 9.0], swept):
                fresh = (
                    engine.approx_dbscan(eps, 5, rho=0.05)
                    if algorithm == "approx"
                    else engine.dbscan(eps, 5)
                )
                assert np.array_equal(result.labels, fresh.labels), (algorithm, eps)


def _pooled_components(run, grid, min_pts, workers, **hook_kwargs):
    """The ``(labels, k)`` a ``workers>1`` pipeline run hands its hook.

    Core labeling fans out over the pool; connectivity then runs in the
    parent on the merged mask, so its labels must equal the loop's.
    """
    seen = {}
    hooks = PipelineHooks(on_phase=seen.__setitem__, **hook_kwargs)
    cfg = ParallelConfig(workers=workers, min_points=0)
    result = run(grid.points, grid.eps, min_pts, workers=cfg, hooks=hooks)
    assert result.meta["workers"] == workers
    return seen["components"]


class TestParallelOracle:
    def test_workers_match_serial_loop(self):
        grid, core = _dataset(7, 1200, 2, 6.0, 5)
        ref_e = loops.exact_components(grid, core)
        ref_a = loops.approx_components(grid, core, 0.1)
        par_e = _pooled_components(exact_grid_dbscan, grid, 5, 3)
        par_a = _pooled_components(partial(approx_dbscan, rho=0.1), grid, 5, 3)
        assert np.array_equal(par_e[0], ref_e[0]) and par_e[1] == ref_e[1]
        assert np.array_equal(par_a[0], ref_a[0]) and par_a[1] == ref_a[1]

    def test_workers_preunion_match(self):
        grid, core = _dataset(8, 1000, 2, 6.0, 5)
        seed = loops.edge_list_exact(grid, core)[::2]
        ref = loops.exact_components(grid, core)
        par = _pooled_components(exact_grid_dbscan, grid, 5, 2, preunion=seed)
        assert np.array_equal(par[0], ref[0]) and par[1] == ref[1]


class TestStageCertificates:
    """Stage A accepts only true edges; stage B rejects only non-edges."""

    @pytest.mark.parametrize("seed,d", [(10, 2), (11, 3)])
    def test_against_exact_edge_list(self, seed, d):
        grid, core = _dataset(seed, 600, d, 8.0, 4)
        cells = cg.core_cells(grid, core)
        arrays = cell_arrays(grid.points, cells)
        keys, ii, jj = grid.neighbor_cell_pair_arrays(subset=cells.keys())
        true_edges = set()
        for c1, c2 in loops.edge_list_exact(grid, core):
            true_edges.add((c1, c2))
            true_edges.add((c2, c1))
        accept, reject = classify_pairs(grid.points, grid.eps, arrays, ii, jj)
        assert not np.any(accept & reject)
        for t in range(len(ii)):
            pair = (keys[ii[t]], keys[jj[t]])
            if accept[t]:
                assert pair in true_edges, f"stage A accepted non-edge {pair}"
            if reject[t]:
                assert pair not in true_edges, f"stage B rejected true edge {pair}"

    def test_approx_reject_band_is_wider(self):
        grid, core = _dataset(12, 600, 2, 8.0, 4)
        cells = cg.core_cells(grid, core)
        arrays = cell_arrays(grid.points, cells)
        _, ii, jj = grid.neighbor_cell_pair_arrays(subset=cells.keys())
        _, reject_exact = classify_pairs(grid.points, grid.eps, arrays, ii, jj)
        _, reject_approx = classify_pairs(
            grid.points, grid.eps, arrays, ii, jj,
            reject_eps=grid.eps * 1.5,
        )
        # A wider no band can only reject a subset of the exact rejects.
        assert not np.any(reject_approx & ~reject_exact)


class TestKernelInternals:
    def test_exact_predicate_structure_seeding(self):
        grid, core = _dataset(14, 500, 2, 7.0, 4)
        cells = cg.core_cells(grid, core)
        shared: dict = {}
        edge = cg.exact_edge_predicate(grid, cells, "kdtree", structures=shared)
        keys = list(cells.keys())
        pairs = [(keys[i], keys[j]) for i, j in zip(range(0, 8), range(1, 9))]
        expected = [edge(c1, c2) for c1, c2 in pairs]
        assert shared, "kdtree predicate must populate the seeded cache"
        # A predicate seeded with the warm cache answers identically.
        warm = cg.exact_edge_predicate(grid, cells, "kdtree", structures=shared)
        assert [warm(c1, c2) for c1, c2 in pairs] == expected

    def test_engine_caches_exact_structures(self):
        rng = np.random.default_rng(15)
        points = rng.uniform(0, 60, size=(500, 2))
        engine = ClusteringEngine(points, cache=StructureCache())
        cold = engine.dbscan(7.0, 4, bcp_strategy="kdtree")
        key = engine._key("exact_structures", 7.0, 4, "kdtree")
        warm_structures = engine.cache.get(key)
        warm = engine.dbscan(7.0, 4, bcp_strategy="kdtree")
        assert np.array_equal(cold.labels, warm.labels)
        if warm_structures is not None:
            # The warm run must not have replaced the cached dict.
            assert engine.cache.get(key) is warm_structures

    def test_counters_funnel_accounts_for_every_pair(self):
        from repro.grid import counters

        grid, core = _dataset(16, 800, 2, 7.0, 5)
        before = counters.snapshot()
        cg.exact_components(grid, core)
        delta = counters.delta_since(before)
        assert delta["edge_pairs_total"] > 0
        settled = (
            delta.get("edge_quick_accept", 0)
            + delta.get("edge_quick_reject", 0)
            + delta.get("edge_survivors", 0)
            + delta.get("edge_connected_skip", 0)
        )
        assert settled == delta["edge_pairs_total"]
        assert delta.get("edge_survivors", 0) == (
            delta.get("edge_scheduled_skip", 0)
            + delta.get("edge_predicate_tests", 0)
        )

    def test_empty_core_set(self):
        rng = np.random.default_rng(17)
        points = rng.uniform(0, 100, size=(50, 2))
        grid = Grid(points, 1.0)
        core = np.zeros(len(points), dtype=bool)
        labels, k = cg.exact_components(grid, core)
        assert k == 0
        assert np.all(labels == -1)
