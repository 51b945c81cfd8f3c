"""Tests for border assignment and the core-cell graph builders."""

import numpy as np
import pytest

from repro.core.border import assign_borders
from repro.core.cellgraph import approx_components, core_cells, exact_components
from repro.core.labeling import label_cores
from repro.grid.cells import Grid

from .conftest import make_blobs
from .oracles.loops import edge_list_exact


def setup_grid(pts, eps, min_pts):
    grid = Grid(pts, eps)
    core_mask = label_cores(grid, min_pts)
    return grid, core_mask


class TestCoreCells:
    def test_only_cells_with_core_points(self):
        pts = np.vstack([np.zeros((10, 2)), [[50.0, 50.0]]])
        grid, core_mask = setup_grid(pts, eps=2.0, min_pts=5)
        cells = core_cells(grid, core_mask)
        assert len(cells) == 1
        assert cells.ids.tolist() == [grid.point_cell[0]]
        assert cells.of(0).tolist() == list(range(10))

    def test_empty_when_no_cores(self):
        pts = np.array([[0.0, 0.0], [50.0, 50.0]])
        grid, core_mask = setup_grid(pts, eps=1.0, min_pts=3)
        cells = core_cells(grid, core_mask)
        assert len(cells) == 0 and cells.indptr.tolist() == [0]


class TestExactComponents:
    def test_two_separate_blobs_two_components(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([
            rng.normal(0, 0.5, size=(40, 2)),
            rng.normal(30, 0.5, size=(40, 2)),
        ])
        grid, core_mask = setup_grid(pts, eps=2.0, min_pts=5)
        labels, k = exact_components(grid, core_mask)
        assert k == 2
        assert labels[0] != labels[50]

    def test_bridge_merges_components(self):
        # A chain of points within eps of each other must form one component.
        pts = np.array([[float(i) * 0.9, 0.0] for i in range(30)])
        grid, core_mask = setup_grid(pts, eps=1.0, min_pts=2)
        assert core_mask.all()
        _labels, k = exact_components(grid, core_mask)
        assert k == 1

    def test_noncore_positions_get_minus_one(self):
        pts = np.vstack([np.zeros((5, 2)), [[50.0, 50.0]]])
        grid, core_mask = setup_grid(pts, eps=1.0, min_pts=3)
        labels, _k = exact_components(grid, core_mask)
        assert labels[5] == -1

    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_strategies_agree(self, strategy):
        pts = make_blobs(200, 3, 3, spread=1.0, domain=40.0, seed=1)
        grid, core_mask = setup_grid(pts, eps=2.5, min_pts=5)
        labels_a, ka = exact_components(grid, core_mask)
        labels_b, kb = exact_components(grid, core_mask, bcp_strategy=strategy)
        assert ka == kb
        # Same partition (labels may be permuted).
        core_idx = np.nonzero(core_mask)[0]
        mapping = {}
        for i in core_idx:
            mapping.setdefault(labels_a[i], set()).add(labels_b[i])
        assert all(len(v) == 1 for v in mapping.values())


class TestEdgeListExact:
    def test_edges_iff_core_points_within_eps(self):
        pts = make_blobs(150, 2, 2, spread=1.0, domain=30.0, seed=2)
        eps, min_pts = 2.0, 4
        grid, core_mask = setup_grid(pts, eps, min_pts)
        cells = core_cells(grid, core_mask)
        edges = {frozenset(e) for e in edge_list_exact(grid, core_mask).tolist()}
        # Brute-force check over all core-cell pairs.
        names = cells.ids.tolist()
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = names[i], names[j]
                pa, pb = pts[cells.of(i)], pts[cells.of(j)]
                sq = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
                expected = bool((sq <= eps * eps).any())
                assert (frozenset((a, b)) in edges) == expected


class TestApproxComponents:
    def test_matches_exact_for_well_separated_data(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([
            rng.normal(0, 0.5, size=(50, 3)),
            rng.normal(40, 0.5, size=(50, 3)),
        ])
        grid, core_mask = setup_grid(pts, eps=2.0, min_pts=5)
        _la, ka = exact_components(grid, core_mask)
        _lb, kb = approx_components(grid, core_mask, rho=0.001)
        assert ka == kb == 2

    def test_never_fewer_components_than_inflated_exact(self):
        # Approx components sit between exact(eps) and exact(eps(1+rho)):
        # the approx component count is between the two exact counts.
        pts = make_blobs(250, 2, 4, spread=1.2, domain=40.0, seed=4)
        eps, rho, min_pts = 2.0, 0.2, 5
        grid, core_mask = setup_grid(pts, eps, min_pts)
        _la, k_exact = exact_components(grid, core_mask)
        _lb, k_approx = approx_components(grid, core_mask, rho=rho)
        grid2 = Grid(pts, eps * (1 + rho))
        # Same core set (Definition 1 unchanged): count components at the
        # inflated radius over the *same* core mask.
        _lc, k_inflated = exact_components(grid2, core_mask)
        assert k_inflated <= k_approx <= k_exact

    @pytest.mark.parametrize("exact_leaf_size", [0, 4])
    def test_leaf_size_variants_valid(self, exact_leaf_size):
        pts = make_blobs(150, 3, 2, spread=1.0, domain=30.0, seed=5)
        grid, core_mask = setup_grid(pts, eps=2.0, min_pts=4)
        _labels, k = approx_components(
            grid, core_mask, rho=0.05, exact_leaf_size=exact_leaf_size
        )
        assert k >= 1


class TestAssignBorders:
    def test_border_joins_cluster_of_nearby_core(self):
        # A short dense segment plus a point within eps of its tip but with
        # too few neighbours of its own to be core.
        blob = np.column_stack([np.linspace(0, 0.45, 10), np.zeros(10)])
        pts = np.vstack([blob, [[1.4, 0.0]], [[50.0, 50.0]]])
        grid, core_mask = setup_grid(pts, eps=1.0, min_pts=5)
        assert core_mask[:10].all() and not core_mask[10]
        labels, _k = exact_components(grid, core_mask)
        borders = assign_borders(grid, core_mask, labels)
        assert borders[10] == (labels[9],)
        assert 11 not in borders  # far away: noise

    def test_border_between_two_clusters_gets_both(self):
        # Two dense columns with a single point within eps of cores of both
        # but with a sub-MinPts neighbourhood itself (the paper's o10).
        ys = np.linspace(0, 2, 21)
        left = np.column_stack([np.zeros(21), ys])
        right = np.column_stack([np.full(21, 2.0), ys])
        middle = np.array([[1.0, 1.0]])
        pts = np.vstack([left, right, middle])
        grid, core_mask = setup_grid(pts, eps=1.05, min_pts=16)
        assert not core_mask[42]
        labels, k = exact_components(grid, core_mask)
        assert k == 2
        borders = assign_borders(grid, core_mask, labels)
        assert len(borders[42]) == 2

    def test_no_borders_when_all_core(self):
        pts = np.zeros((8, 2))
        grid, core_mask = setup_grid(pts, eps=1.0, min_pts=2)
        labels, _k = exact_components(grid, core_mask)
        assert assign_borders(grid, core_mask, labels) == {}
