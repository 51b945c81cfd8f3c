"""Unit tests for the STR-packed R-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DataError
from repro.geometry import distance as dm
from repro.index.rtree import RTree, _min_sq_to_box, _str_sort


def brute_range(points, q, radius):
    # The library's one "within radius" boundary (``dm.sq_radius``), which
    # every index compares against: a point a few ulp beyond ``radius`` is
    # inside it.
    sq = ((points - q) ** 2).sum(axis=1)
    return np.nonzero(sq <= dm.sq_radius(radius))[0]


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            RTree(np.empty((0, 2)))

    def test_rejects_small_fanout(self):
        with pytest.raises(DataError):
            RTree(np.zeros((4, 2)), fanout=1)

    def test_str_sort_is_permutation(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(101, 3))
        order = _str_sort(pts, fanout=8)
        assert sorted(order.tolist()) == list(range(101))

    def test_single_point(self):
        tree = RTree(np.array([[5.0, 5.0]]))
        assert tree.range_query(np.array([5.0, 5.0]), 0.1).tolist() == [0]

    def test_levels_shrink(self):
        rng = np.random.default_rng(1)
        tree = RTree(rng.uniform(size=(300, 2)), fanout=4)
        sizes = [len(level) for level in tree._levels]
        assert sizes[-1] == 1
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestMinSqToBox:
    def test_inside_box_is_zero(self):
        assert _min_sq_to_box(np.array([0.5, 0.5]), np.zeros(2), np.ones(2)) == 0.0

    def test_outside_box(self):
        assert _min_sq_to_box(np.array([2.0, 0.5]), np.zeros(2), np.ones(2)) == pytest.approx(1.0)

    def test_corner_distance(self):
        got = _min_sq_to_box(np.array([2.0, 2.0]), np.zeros(2), np.ones(2))
        assert got == pytest.approx(2.0)


class TestRangeQuery:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("fanout", [2, 8, 16])
    def test_matches_brute(self, d, fanout):
        rng = np.random.default_rng(d * 31 + fanout)
        pts = rng.uniform(0, 100, size=(250, d))
        tree = RTree(pts, fanout=fanout)
        for _ in range(8):
            q = rng.uniform(0, 100, size=d)
            r = float(rng.uniform(1, 50))
            assert tree.range_query(q, r).tolist() == brute_range(pts, q, r).tolist()

    def test_duplicates(self):
        pts = np.array([[1.0, 1.0]] * 37 + [[9.0, 9.0]] * 3)
        tree = RTree(pts, fanout=4)
        assert len(tree.range_query(np.array([1.0, 1.0]), 0.5)) == 37

    def test_empty_result(self):
        tree = RTree(np.zeros((10, 2)))
        out = tree.range_query(np.array([100.0, 100.0]), 1.0)
        assert out.dtype == np.int64 and len(out) == 0


class TestCountWithin:
    def test_matches_range_query(self):
        rng = np.random.default_rng(77)
        pts = rng.uniform(0, 10, size=(180, 4))
        tree = RTree(pts, fanout=8)
        for _ in range(10):
            q = rng.uniform(0, 10, size=4)
            r = float(rng.uniform(0.5, 6))
            assert tree.count_within(q, r) == len(tree.range_query(q, r))

    def test_cap_respected(self):
        pts = np.zeros((50, 2))
        tree = RTree(pts, fanout=4)
        assert tree.count_within(np.zeros(2), 1.0, cap=7) >= 7


class TestKDTreeRTreeAgree:
    def test_same_answers(self):
        from repro.index.kdtree import KDTree

        rng = np.random.default_rng(5)
        pts = rng.normal(0, 10, size=(220, 3))
        kd, rt = KDTree(pts), RTree(pts)
        for _ in range(10):
            q = rng.normal(0, 10, size=3)
            r = float(rng.uniform(1, 15))
            assert kd.range_query(q, r).tolist() == rt.range_query(q, r).tolist()


@settings(max_examples=40, deadline=None)
@given(
    pts=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
               elements=st.floats(-100, 100)),
    q=arrays(np.float64, (2,), elements=st.floats(-100, 100)),
    radius=st.floats(0.0, 120.0),
)
def test_property_range_matches_brute(pts, q, radius):
    tree = RTree(pts, fanout=3)
    assert tree.range_query(q, radius).tolist() == brute_range(pts, q, radius).tolist()
