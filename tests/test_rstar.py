"""Tests for the dynamic R*-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DataError
from repro.geometry import distance as dm
from repro.index.rstar import _MAX_ENTRIES, RStarTree


def brute_range(points, q, radius):
    # The library's one "within radius" boundary (``dm.sq_radius``), which
    # every index compares against: a point a few ulp beyond ``radius`` is
    # inside it.
    sq = ((points - q) ** 2).sum(axis=1)
    return np.nonzero(sq <= dm.sq_radius(radius))[0].tolist()


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            RStarTree(np.empty((0, 2)))

    def test_single_point(self):
        tree = RStarTree(np.array([[1.0, 2.0]]))
        assert tree.range_query(np.array([1.0, 2.0]), 0.0).tolist() == [0]
        assert tree.height() == 1

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        tree = RStarTree(rng.uniform(0, 100, size=(300, 3)))
        tree.check_invariants()

    def test_invariants_sorted_insertion_order(self):
        # Adversarially sorted input stresses ChooseSubtree and splits.
        pts = np.sort(np.random.default_rng(1).uniform(0, 100, size=(250, 2)), axis=0)
        tree = RStarTree(pts)
        tree.check_invariants()

    def test_invariants_duplicates(self):
        pts = np.vstack([np.ones((80, 2)), np.zeros((80, 2))])
        tree = RStarTree(pts)
        tree.check_invariants()

    def test_tree_grows_in_height(self):
        rng = np.random.default_rng(2)
        small = RStarTree(rng.uniform(size=(_MAX_ENTRIES, 2)))
        large = RStarTree(rng.uniform(size=(2000, 2)))
        assert small.height() == 1
        assert large.height() >= 3

    def test_shuffle_seed_changes_structure_not_answers(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 50, size=(200, 2))
        a = RStarTree(pts, shuffle_seed=1)
        b = RStarTree(pts, shuffle_seed=2)
        q = np.array([25.0, 25.0])
        assert a.range_query(q, 10.0).tolist() == b.range_query(q, 10.0).tolist()


class TestRangeQuery:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_brute(self, d):
        rng = np.random.default_rng(10 + d)
        pts = rng.uniform(0, 100, size=(300, d))
        tree = RStarTree(pts)
        for _ in range(10):
            q = rng.uniform(0, 100, size=d)
            r = float(rng.uniform(1, 40))
            assert tree.range_query(q, r).tolist() == brute_range(pts, q, r)

    def test_clustered_data(self):
        rng = np.random.default_rng(20)
        pts = np.vstack([rng.normal(c, 1.0, size=(100, 2)) for c in (0, 30, 60)])
        tree = RStarTree(pts)
        for q in (np.zeros(2), np.array([30.0, 30.0]), np.array([45.0, 45.0])):
            assert tree.range_query(q, 5.0).tolist() == brute_range(pts, q, 5.0)

    def test_empty_result(self):
        tree = RStarTree(np.zeros((40, 2)))
        assert len(tree.range_query(np.array([1e6, 1e6]), 1.0)) == 0

    def test_all_results(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(120, 3))
        tree = RStarTree(pts)
        assert len(tree.range_query(np.zeros(3), 1e6)) == 120


class TestKDD96Integration:
    def test_rstar_backend_matches_others(self):
        from repro.algorithms.kdd96 import kdd96_dbscan

        rng = np.random.default_rng(30)
        pts = np.vstack([rng.normal(0, 1, (80, 3)), rng.normal(20, 1, (80, 3))])
        a = kdd96_dbscan(pts, 3.0, 5, index="rstar")
        b = kdd96_dbscan(pts, 3.0, 5, index="rtree")
        assert a.same_clusters(b)
        assert a.meta["index"] == "rstar"


@settings(max_examples=25, deadline=None)
@given(
    pts=arrays(np.float64, st.tuples(st.integers(1, 60), st.just(2)),
               elements=st.floats(-100, 100)),
    q=arrays(np.float64, (2,), elements=st.floats(-100, 100)),
    radius=st.floats(0.0, 120.0),
)
def test_property_range_matches_brute(pts, q, radius):
    tree = RStarTree(pts)
    tree.check_invariants()
    assert tree.range_query(q, radius).tolist() == brute_range(pts, q, radius)
