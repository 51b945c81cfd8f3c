"""Edge cases across modules that the focused suites do not reach."""

import numpy as np
import pytest

from repro import approx_dbscan, dbscan
from repro.data.seed_spreader import seed_spreader
from repro.errors import DataError, ParameterError
from repro.grid.cells import Grid
from repro.grid.hierarchy import FlatHierarchy
from repro.index.kdtree import KDTree

from .oracles.counting import CountingHierarchy


class TestOneDimensional:
    """d = 1 exercises every generic-d code path at its minimum."""

    def test_exact_and_approx_agree(self):
        pts = np.concatenate([
            np.linspace(0, 1, 30), np.linspace(10, 11, 30)
        ]).reshape(-1, 1)
        exact = dbscan(pts, 0.2, 3, algorithm="brute")
        grid = dbscan(pts, 0.2, 3)
        approx = approx_dbscan(pts, 0.2, 3, rho=0.001)
        assert grid.same_clusters(exact)
        assert approx.same_clusters(exact)
        assert exact.n_clusters == 2

    def test_hierarchy_1d(self):
        pts = np.linspace(0, 10, 50).reshape(-1, 1)
        exact = int((np.abs(pts[:, 0] - 5.0) <= 1.0).sum())
        outer = int((np.abs(pts[:, 0] - 5.0) <= 1.01).sum())
        for structure_cls in (FlatHierarchy, CountingHierarchy):
            ans = structure_cls(pts, 1.0, 0.01).count(np.array([5.0]))
            assert exact <= ans <= outer, structure_cls.__name__


class TestHighDimensional:
    def test_6d_equivalence(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([
            rng.normal(0, 1, (50, 6)),
            rng.normal(15, 1, (50, 6)),
        ])
        exact = dbscan(pts, 4.0, 5, algorithm="brute")
        assert dbscan(pts, 4.0, 5).same_clusters(exact)
        assert approx_dbscan(pts, 4.0, 5, rho=0.01).same_clusters(exact)


class TestDegenerateGeometry:
    def test_points_on_a_grid_lattice(self):
        # Many exact boundary distances at once.
        xs, ys = np.meshgrid(np.arange(8, dtype=float), np.arange(8, dtype=float))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        exact = dbscan(pts, 1.0, 4, algorithm="brute")
        assert dbscan(pts, 1.0, 4).same_clusters(exact)
        assert exact.n_clusters == 1

    def test_single_coordinate_varies(self):
        pts = np.zeros((40, 3))
        pts[:, 1] = np.arange(40) * 0.5
        exact = dbscan(pts, 0.6, 3, algorithm="brute")
        assert dbscan(pts, 0.6, 3).same_clusters(exact)

    def test_two_identical_heavy_clusters(self):
        pts = np.vstack([np.zeros((100, 2)), np.full((100, 2), 3.0)])
        result = approx_dbscan(pts, 1.0, 50, rho=0.001)
        assert result.n_clusters == 2
        assert result.core_mask.all()


class TestParameterExtremes:
    def test_huge_min_pts(self):
        pts = np.random.default_rng(1).uniform(0, 10, (50, 2))
        result = dbscan(pts, 2.0, 10_000)
        assert result.n_clusters == 0
        assert result.noise_mask.all()

    def test_tiny_eps(self):
        pts = np.random.default_rng(2).uniform(0, 10, (50, 2))
        result = dbscan(pts, 1e-12, 2)
        assert result.n_clusters == 0

    def test_huge_eps_single_cluster(self):
        pts = np.random.default_rng(3).uniform(0, 10, (50, 2))
        result = approx_dbscan(pts, 1e6, 2, rho=0.001)
        assert result.n_clusters == 1

    def test_rho_larger_than_one(self):
        pts = np.random.default_rng(4).uniform(0, 10, (60, 2))
        result = approx_dbscan(pts, 1.0, 3, rho=5.0)
        assert result.n >= 1  # legal; single-level hierarchy


class TestGridEdges:
    def test_grid_single_cell(self):
        grid = Grid(np.zeros((10, 2)), eps=5.0)
        assert len(grid) == 1
        adjacency = grid.adjacency()
        assert grid.point_cell.tolist() == [0] * 10
        assert adjacency.indptr.tolist() == [0, 0] and len(adjacency.indices) == 0

    def test_grid_points_on_cell_boundaries(self):
        # Points exactly on cell boundaries must land in exactly one cell.
        side = 1.0 / np.sqrt(2)
        pts = np.array([[0.0, 0.0], [side, 0.0], [2 * side, 0.0]])
        grid = Grid(pts, eps=1.0)
        assert int(grid.sizes.sum()) == 3
        assert grid.cell_coords[grid.point_cell].tolist() == [[0, 0], [1, 0], [2, 0]]

    def test_kdtree_leaf_size_one_deep_tree(self):
        pts = np.random.default_rng(5).uniform(0, 100, (128, 2))
        tree = KDTree(pts, leaf_size=1)
        q = pts[64]
        idx, sq = tree.nearest(q)
        assert sq == pytest.approx(0.0)


class TestSeedSpreaderCustoms:
    def test_custom_domain(self):
        ds = seed_spreader(500, 2, domain=1000.0, noise_fraction=0.1, seed=6)
        noise = ds.points[ds.restart_ids == -1]
        assert (noise >= 0).all() and (noise <= 1000.0).all()

    def test_restart_probability_one_all_singletons(self):
        ds = seed_spreader(50, 2, restart_probability=1.0, noise_fraction=0.0, seed=7)
        assert ds.n_restarts == 50

    def test_zero_noise(self):
        ds = seed_spreader(300, 3, noise_fraction=0.0, seed=8)
        assert ds.n_noise == 0
        assert (ds.restart_ids >= 0).all()


class TestAPIMisc:
    def test_points_list_of_lists_1d_entries(self):
        result = dbscan([[0.0], [0.1], [5.0]], 0.5, 2)
        assert result.n == 3

    def test_non_contiguous_array(self):
        base = np.random.default_rng(9).uniform(0, 10, (100, 4))
        view = base[::2, ::2]  # non-contiguous view
        result = dbscan(view, 2.0, 3)
        assert result.n == 50

    def test_float32_input_upcast(self):
        pts = np.random.default_rng(10).uniform(0, 10, (60, 2)).astype(np.float32)
        result = dbscan(pts, 2.0, 3)
        assert result.n == 60
