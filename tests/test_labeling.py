"""Tests for the core-point labeling process (Section 2.2)."""

import numpy as np
import pytest

from repro.core.labeling import label_cores
from repro.errors import AlgorithmError
from repro.grid.cells import Grid

from .conftest import brute_neighbor_counts, make_blobs
from .oracles.loops import neighbor_counts


class TestLabelCores:
    def test_matches_brute_definition(self):
        pts = make_blobs(300, 2, 3, spread=1.0, domain=50.0, seed=0)
        eps, min_pts = 2.0, 8
        grid = Grid(pts, eps)
        core = label_cores(grid, min_pts)
        expected = brute_neighbor_counts(pts, eps) >= min_pts
        assert (core == expected).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_dimensions(self, d):
        rng = np.random.default_rng(d)
        pts = rng.uniform(0, 30, size=(200, d))
        eps, min_pts = 4.0, 5
        grid = Grid(pts, eps)
        core = label_cores(grid, min_pts)
        expected = brute_neighbor_counts(pts, eps) >= min_pts
        assert (core == expected).all()

    def test_dense_cell_shortcut(self):
        # A cell with >= MinPts points: all must be core without distance work.
        pts = np.vstack([np.full((20, 2), 5.0), [[100.0, 100.0]]])
        grid = Grid(pts, eps=3.0)
        core = label_cores(grid, min_pts=10)
        assert core[:20].all()
        assert not core[20]

    def test_min_pts_one_makes_everything_core(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, size=(50, 3))
        grid = Grid(pts, eps=0.5)
        assert label_cores(grid, 1).all()

    def test_min_pts_larger_than_n(self):
        pts = np.random.default_rng(2).uniform(0, 10, size=(5, 2))
        grid = Grid(pts, eps=100.0)
        assert not label_cores(grid, 6).any()

    def test_boundary_distance_counts(self):
        # Two points exactly eps apart count each other.
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        grid = Grid(pts, eps=1.0)
        assert label_cores(grid, 2).all()

    def test_wrong_side_rejected(self):
        pts = np.zeros((3, 2))
        grid = Grid(pts, eps=1.0, side=5.0)
        with pytest.raises(AlgorithmError):
            label_cores(grid, 2)

    def test_early_termination_consistent(self):
        # Early termination must not change the outcome versus full counts.
        pts = make_blobs(400, 3, 2, spread=0.8, domain=30.0, seed=3)
        eps, min_pts = 2.5, 12
        grid = Grid(pts, eps)
        core = label_cores(grid, min_pts)
        counts = neighbor_counts(grid)
        assert (core == (counts >= min_pts)).all()


class TestNeighborCounts:
    """The brute oracle behind every core-labeling differential."""

    def test_matches_brute(self):
        pts = make_blobs(250, 2, 2, spread=1.0, domain=40.0, seed=4)
        grid = Grid(pts, eps=3.0)
        assert (neighbor_counts(grid) == brute_neighbor_counts(pts, 3.0)).all()

    def test_counts_include_self(self):
        pts = np.array([[0.0, 0.0], [50.0, 50.0]])
        grid = Grid(pts, eps=1.0)
        assert neighbor_counts(grid).tolist() == [1, 1]

    def test_cap(self):
        pts = np.zeros((10, 2))
        grid = Grid(pts, eps=1.0)
        assert (neighbor_counts(grid, cap=4) == 4).all()

    def test_duplicates_all_counted(self):
        pts = np.vstack([np.zeros((7, 2)), [[0.5, 0.0]]])
        grid = Grid(pts, eps=1.0)
        assert (neighbor_counts(grid) == 8).all()
