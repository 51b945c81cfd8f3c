"""Unit and property tests for the kd-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DataError
from repro.geometry import distance as dm
from repro.index.kdtree import KDTree


def brute_range(points, q, radius):
    # The library's one "within radius" boundary (``dm.sq_radius``), which
    # every index compares against: a point a few ulp beyond ``radius`` is
    # inside it.
    sq = ((points - q) ** 2).sum(axis=1)
    return np.nonzero(sq <= dm.sq_radius(radius))[0]


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            KDTree(np.empty((0, 2)))

    def test_rejects_1d_array(self):
        with pytest.raises(DataError):
            KDTree(np.zeros(5))

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(DataError):
            KDTree(np.zeros((3, 2)), leaf_size=0)

    def test_handles_all_identical_points(self):
        pts = np.ones((100, 3))
        tree = KDTree(pts, leaf_size=4)
        assert len(tree.range_query(np.ones(3), 0.1)) == 100

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0]]))
        assert tree.range_query(np.array([1.0, 2.0]), 0.0).tolist() == [0]


class TestRangeQuery:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_matches_brute(self, d, leaf_size):
        rng = np.random.default_rng(d * 10 + leaf_size)
        pts = rng.uniform(0, 100, size=(300, d))
        tree = KDTree(pts, leaf_size=leaf_size)
        for _ in range(10):
            q = rng.uniform(0, 100, size=d)
            r = float(rng.uniform(1, 40))
            assert tree.range_query(q, r).tolist() == brute_range(pts, q, r).tolist()

    def test_zero_radius(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        tree = KDTree(pts)
        assert tree.range_query(np.zeros(2), 0.0).tolist() == [0, 2]

    def test_radius_covering_everything(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 3))
        tree = KDTree(pts)
        assert len(tree.range_query(np.zeros(3), 1000.0)) == 50

    def test_query_far_away(self):
        pts = np.random.default_rng(4).normal(size=(50, 2))
        tree = KDTree(pts)
        assert len(tree.range_query(np.array([1e6, 1e6]), 1.0)) == 0


class TestRangeQueryBatch:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_matches_single_queries(self, d, leaf_size):
        rng = np.random.default_rng(d * 100 + leaf_size)
        pts = rng.uniform(0, 100, size=(300, d))
        tree = KDTree(pts, leaf_size=leaf_size)
        queries = rng.uniform(0, 100, size=(25, d))
        r = 20.0
        batch = tree.range_query_batch(queries, r)
        assert len(batch) == len(queries)
        for q, hits in zip(queries, batch):
            assert hits.tolist() == tree.range_query(q, r).tolist()

    def test_empty_batch(self):
        tree = KDTree(np.random.default_rng(0).normal(size=(20, 2)))
        assert tree.range_query_batch(np.empty((0, 2)), 1.0) == []

    def test_rejects_1d_queries(self):
        from repro.errors import DataError

        tree = KDTree(np.random.default_rng(0).normal(size=(20, 2)))
        with pytest.raises(DataError):
            tree.range_query_batch(np.zeros(2), 1.0)

    def test_large_coordinates_stay_exact(self):
        # The batched leaf kernel must use the cancellation-safe diff form:
        # coordinates around 1e8 would flip boundary verdicts under the
        # expanded |a|^2 + |b|^2 - 2ab form.
        base = 1e8
        pts = np.array([[base, base], [base + 1.0, base], [base + 3.0, base]])
        tree = KDTree(pts, leaf_size=1)
        queries = np.array([[base, base]])
        (hits,) = tree.range_query_batch(queries, 1.0)
        assert hits.tolist() == tree.range_query(queries[0], 1.0).tolist() == [0, 1]


class TestCountWithin:
    def test_matches_range_query(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 10, size=(200, 3))
        tree = KDTree(pts, leaf_size=8)
        for _ in range(10):
            q = rng.uniform(0, 10, size=3)
            r = float(rng.uniform(0.5, 5))
            assert tree.count_within(q, r) == len(tree.range_query(q, r))

    def test_cap_early_exit(self):
        pts = np.zeros((100, 2))
        tree = KDTree(pts)
        # With a cap the count may stop early but never under the cap when
        # enough points exist.
        assert tree.count_within(np.zeros(2), 1.0, cap=5) >= 5

    def test_cap_does_not_undercount_small_sets(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]])
        tree = KDTree(pts)
        assert tree.count_within(np.zeros(2), 1.0, cap=10) == 2


class TestNearest:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matches_brute(self, d):
        rng = np.random.default_rng(6 + d)
        pts = rng.uniform(0, 50, size=(150, d))
        tree = KDTree(pts, leaf_size=4)
        for _ in range(15):
            q = rng.uniform(0, 50, size=d)
            sq = ((pts - q) ** 2).sum(axis=1)
            idx, got = tree.nearest(q)
            assert got == pytest.approx(sq.min())
            assert sq[idx] == pytest.approx(sq.min())

    def test_bound_prunes_everything(self):
        pts = np.array([[10.0, 10.0]])
        tree = KDTree(pts)
        idx, sq = tree.nearest(np.zeros(2), bound_sq=1.0)
        assert idx == -1
        assert sq == 1.0

    def test_bound_allows_better(self):
        pts = np.array([[1.0, 0.0], [10.0, 0.0]])
        tree = KDTree(pts)
        idx, sq = tree.nearest(np.zeros(2), bound_sq=4.0)
        assert idx == 0
        assert sq == pytest.approx(1.0)


class TestKNearest:
    def test_matches_brute_ordering(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 20, size=(120, 3))
        tree = KDTree(pts, leaf_size=6)
        q = rng.uniform(0, 20, size=3)
        sq = ((pts - q) ** 2).sum(axis=1)
        expected = np.argsort(sq, kind="stable")[:7]
        got = [idx for idx, _d in tree.k_nearest(q, 7)]
        assert sorted(sq[got]) == pytest.approx(sorted(sq[expected]))

    def test_k_larger_than_n(self):
        pts = np.zeros((3, 2))
        tree = KDTree(pts)
        assert len(tree.k_nearest(np.zeros(2), 10)) == 3

    def test_k_one_equals_nearest(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(60, 2))
        tree = KDTree(pts)
        q = rng.normal(size=2)
        (idx, sq), = tree.k_nearest(q, 1)
        n_idx, n_sq = tree.nearest(q)
        assert sq == pytest.approx(n_sq)


@settings(max_examples=50, deadline=None)
@given(
    pts=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
               elements=st.floats(-100, 100)),
    q=arrays(np.float64, (3,), elements=st.floats(-100, 100)),
    radius=st.floats(0.0, 150.0),
)
def test_property_range_query_matches_brute(pts, q, radius):
    tree = KDTree(pts, leaf_size=3)
    assert tree.range_query(q, radius).tolist() == brute_range(pts, q, radius).tolist()


@settings(max_examples=50, deadline=None)
@given(
    pts=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
               elements=st.floats(-50, 50)),
    q=arrays(np.float64, (2,), elements=st.floats(-50, 50)),
)
def test_property_nearest_matches_brute(pts, q):
    tree = KDTree(pts, leaf_size=2)
    sq = ((pts - q) ** 2).sum(axis=1)
    _idx, got = tree.nearest(q)
    assert got == pytest.approx(sq.min(), abs=1e-9)
