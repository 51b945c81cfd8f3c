"""Unit tests for the distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import distance as dm


class TestScalarDistances:
    def test_sq_dist_simple(self):
        assert dm.sq_dist([0.0, 0.0], [3.0, 4.0]) == 25.0

    def test_dist_simple(self):
        assert dm.dist([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_zero_distance(self):
        p = np.array([1.5, -2.5, 3.0])
        assert dm.sq_dist(p, p) == 0.0

    def test_symmetry(self):
        p, q = np.array([1.0, 2.0]), np.array([-3.0, 7.0])
        assert dm.sq_dist(p, q) == dm.sq_dist(q, p)

    def test_one_dimensional(self):
        assert dm.dist([2.0], [5.0]) == 3.0


class TestSqDistsToPoint:
    def test_matches_scalar(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]])
        q = np.array([0.0, 0.0])
        expected = [dm.sq_dist(p, q) for p in pts]
        assert np.allclose(dm.sq_dists_to_point(pts, q), expected)

    def test_single_point(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        out = dm.sq_dists_to_point(pts, np.array([1.0, 2.0, 3.0]))
        assert out.shape == (1,)
        assert out[0] == 0.0

    def test_integer_inputs_promoted_to_float64(self):
        # Regression: integer arrays used to flow through un-promoted, so
        # the einsum accumulated in the integer dtype and large coordinates
        # overflowed (int32 wraps past ~46k on squared distances).
        pts = np.array([[60_000, 0], [0, 0]], dtype=np.int32)
        q = np.array([0, 0], dtype=np.int32)
        out = dm.sq_dists_to_point(pts, q)
        assert out.dtype == np.float64
        assert out.tolist() == [3.6e9, 0.0]


class TestPairwise:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(dm.pairwise_sq_dists(a, b), naive)

    def test_non_negative_under_cancellation(self):
        # Large coordinates provoke floating-point cancellation; the clip
        # must keep every entry non-negative.
        a = np.full((4, 3), 1e8)
        assert (dm.pairwise_sq_dists(a, a) >= 0).all()

    def test_shapes(self):
        a = np.zeros((3, 2))
        b = np.zeros((4, 2))
        assert dm.pairwise_sq_dists(a, b).shape == (3, 4)


class TestBlockSqDists:
    def _blocks(self, rng, n, rows, m, w):
        a_idx = rng.integers(0, n, size=(rows, m))
        b_idx = rng.integers(0, n, size=(rows, w))
        return a_idx, b_idx

    def _naive(self, points, a_idx, b_idx):
        a, b = points[a_idx], points[b_idx]
        return ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=3)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_matches_naive(self, m):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 3))
        a_idx, b_idx = self._blocks(rng, 30, 4, m, 6)
        out = dm.block_sq_dists(points, a_idx, b_idx)
        assert out.shape == (4, m, 6)
        assert np.allclose(out, self._naive(points, a_idx, b_idx))

    @pytest.mark.parametrize("m", [1, 3])
    def test_exact_far_from_origin(self, m):
        # Dyadic coordinates k/8 shifted by 2^30: every difference and
        # every squared distance is exact in float64, so the anchored
        # block must reproduce the difference form bit for bit, while
        # the expanded form on absolute coordinates is off by ~2^8.
        rng = np.random.default_rng(3)
        points = rng.integers(0, 64, size=(200, 3)) / 8.0
        a_idx, b_idx = self._blocks(rng, 200, 50, m, 9)
        exact = self._naive(points, a_idx, b_idx)
        out = dm.block_sq_dists(points + float(2 ** 30), a_idx, b_idx)
        assert np.array_equal(out, exact)

    def test_row_blocks_cover_every_row(self, monkeypatch):
        monkeypatch.setattr(dm, "_BLOCK_FLOATS", 40)  # a few rows per block
        rng = np.random.default_rng(4)
        points = rng.normal(size=(40, 2))
        for m in (1, 3):
            a_idx, b_idx = self._blocks(rng, 40, 23, m, 5)
            out = dm.block_sq_dists(points, a_idx, b_idx)
            assert np.allclose(out, self._naive(points, a_idx, b_idx))

    def test_leaves_points_untouched(self):
        points = np.array([[1.0, 2.0], [3.0, 5.0], [0.0, 0.0]])
        before = points.copy()
        dm.block_sq_dists(points, np.array([[0, 1]]), np.array([[2, 2, 1]]))
        assert np.array_equal(points, before)


class TestChunkedIteration:
    def test_covers_all_rows(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_BUDGET", "10")  # force many chunks
        rng = np.random.default_rng(1)
        a = rng.normal(size=(23, 2))
        b = rng.normal(size=(4, 2))
        seen = np.zeros(len(a), dtype=bool)
        full = dm.pairwise_sq_dists(a, b)
        chunks = list(dm.iter_chunked_sq_dists(a, b))
        assert len(chunks) > 1
        for rows, block in chunks:
            assert np.allclose(block, full[rows])
            seen[rows] = True
        assert seen.all()

    def test_single_chunk_when_small(self):
        a = np.zeros((3, 2))
        b = np.zeros((2, 2))
        chunks = list(dm.iter_chunked_sq_dists(a, b))
        assert len(chunks) == 1


class TestAggregates:
    def test_any_within_inclusive_boundary(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        assert dm.any_within(a, b, radius=1.0)

    def test_any_within_true(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[5.0, 0.0], [0.9, 0.0]])
        assert dm.any_within(a, b, radius=1.0)

    def test_any_within_false(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[5.0, 0.0], [0.0, 2.0]])
        assert not dm.any_within(a, b, radius=1.0)


@settings(max_examples=60, deadline=None)
@given(
    a=arrays(np.float64, (5, 3), elements=st.floats(-100, 100)),
    b=arrays(np.float64, (4, 3), elements=st.floats(-100, 100)),
)
def test_pairwise_property_matches_naive(a, b):
    naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    fast = dm.pairwise_sq_dists(a, b)
    assert np.allclose(fast, naive, atol=1e-6 * (1 + np.abs(naive).max()))


@settings(max_examples=60, deadline=None)
@given(
    a=arrays(np.float64, (6, 2), elements=st.floats(-50, 50)),
    b=arrays(np.float64, (6, 2), elements=st.floats(-50, 50)),
    radius=st.floats(0.1, 100),
)
def test_any_within_matches_naive(a, b, radius):
    naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert dm.any_within(a, b, radius) == bool((naive <= dm.sq_radius(radius)).any())
