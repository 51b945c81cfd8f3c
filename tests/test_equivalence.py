"""Cross-algorithm equivalence: the strongest oracle in the suite.

The DBSCAN result is unique (Problem 1), so every exact algorithm — brute
force, KDD96 (over either index), CIT08, and the paper's grid+BCP
algorithm — must return *identical* cluster sets, core masks included, on
every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms.brute import brute_dbscan
from repro.algorithms.cit08 import cit08_dbscan
from repro.algorithms.exact_grid import exact_grid_dbscan
from repro.algorithms.kdd96 import kdd96_dbscan

from .conftest import make_blobs

ALGOS = {
    "grid": exact_grid_dbscan,
    "kdd96": kdd96_dbscan,
    "cit08": cit08_dbscan,
}


def assert_all_equal(points, eps, min_pts):
    reference = brute_dbscan(points, eps, min_pts)
    for name, fn in ALGOS.items():
        got = fn(points, eps, min_pts)
        assert got.same_clusters(reference), (
            f"{name} disagrees with brute: {got.summary()} vs {reference.summary()}"
        )
        assert (got.core_mask == reference.core_mask).all(), f"{name} core mask differs"
    return reference


class TestEquivalenceStructured:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_blobs(self, d):
        pts = make_blobs(180, d, 3, spread=1.2, domain=40.0, seed=100 + d)
        assert_all_equal(pts, eps=3.0, min_pts=5)

    @pytest.mark.parametrize("eps", [0.5, 2.0, 8.0, 50.0, 200.0])
    def test_eps_sweep(self, eps):
        pts = make_blobs(150, 3, 3, spread=1.0, domain=50.0, seed=7)
        assert_all_equal(pts, eps=eps, min_pts=4)

    @pytest.mark.parametrize("min_pts", [1, 2, 5, 20, 149, 151])
    def test_min_pts_sweep(self, min_pts):
        pts = make_blobs(140, 2, 2, spread=1.5, domain=30.0, seed=8)
        assert_all_equal(pts, eps=2.5, min_pts=min_pts)


def _shift_case(seed):
    """Uniform points in [0, 20]^d, d 2-3, n 50-401 (eps 2, MinPts 4)."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    return rng.uniform(0.0, 20.0, size=(int(rng.integers(50, 402)), d))


class TestBruteShift:
    """Brute force is the oracle, so it must not depend on where the data sit.

    Shifted by 1e7, the squared norms of the expanded-form distance
    ``|a|^2 + |b|^2 - 2a.b`` swamp eps^2 (uncentred, brute force was wrong
    on 15 of these 40 inputs); centred on the bounding box, it must equal
    KDD96 — which uses the difference form — on the unshifted points.
    """

    def test_shifted_brute_matches_unshifted_kdd96(self):
        wrong = []
        for seed in range(40):
            pts = _shift_case(seed)
            reference = kdd96_dbscan(pts, 2.0, 4)
            got = brute_dbscan(pts + 1e7, 2.0, 4)
            if not (got == reference):
                wrong.append(seed)
        assert wrong == []


class TestEquivalenceAdversarial:
    def test_all_points_coincident(self):
        # The paper's footnote-1 adversarial case: every range query
        # returns everything.
        pts = np.ones((60, 3))
        ref = assert_all_equal(pts, eps=1.0, min_pts=10)
        assert ref.n_clusters == 1

    def test_all_points_within_eps(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 0.1, size=(80, 2))
        ref = assert_all_equal(pts, eps=1.0, min_pts=5)
        assert ref.n_clusters == 1
        assert ref.core_mask.all()

    def test_single_point(self):
        pts = np.array([[3.0, 4.0]])
        ref = assert_all_equal(pts, eps=1.0, min_pts=1)
        assert ref.n_clusters == 1
        ref2 = assert_all_equal(pts, eps=1.0, min_pts=2)
        assert ref2.n_clusters == 0

    def test_two_points_at_eps(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        ref = assert_all_equal(pts, eps=1.0, min_pts=2)
        assert ref.n_clusters == 1

    def test_two_points_just_beyond_eps(self):
        pts = np.array([[0.0, 0.0], [1.001, 0.0]])
        ref = assert_all_equal(pts, eps=1.0, min_pts=2)
        assert ref.n_clusters == 0

    def test_all_noise(self):
        pts = np.arange(20, dtype=np.float64).reshape(-1, 1) * 100.0
        ref = assert_all_equal(pts, eps=1.0, min_pts=2)
        assert ref.n_clusters == 0
        assert ref.noise_mask.all()

    def test_min_pts_one_no_noise(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 100, size=(70, 3))
        ref = assert_all_equal(pts, eps=5.0, min_pts=1)
        assert not ref.noise_mask.any()
        assert ref.core_mask.all()

    def test_duplicated_points(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(0, 10, size=(30, 2))
        pts = np.vstack([base, base, base[:10]])
        assert_all_equal(pts, eps=1.0, min_pts=4)

    def test_chain_of_points(self):
        # A long chain: one cluster through the chained effect.
        pts = np.column_stack([np.arange(50) * 0.9, np.zeros(50)])
        ref = assert_all_equal(pts, eps=1.0, min_pts=3)
        assert ref.n_clusters == 1

    def test_negative_coordinates(self):
        pts = make_blobs(100, 2, 2, spread=1.0, domain=20.0, seed=12) - 50.0
        assert_all_equal(pts, eps=2.0, min_pts=4)

    def test_extreme_scale(self):
        pts = make_blobs(90, 2, 2, spread=1.0, domain=20.0, seed=13) * 1e6
        assert_all_equal(pts, eps=2e6, min_pts=4)

    def test_tiny_scale(self):
        pts = make_blobs(90, 2, 2, spread=1.0, domain=20.0, seed=14) * 1e-6
        assert_all_equal(pts, eps=2e-6, min_pts=4)


class TestKDD96IndexBackends:
    def test_rtree_and_kdtree_agree(self):
        pts = make_blobs(160, 3, 3, spread=1.0, domain=40.0, seed=15)
        a = kdd96_dbscan(pts, 2.5, 5, index="rtree")
        b = kdd96_dbscan(pts, 2.5, 5, index="kdtree")
        assert a.same_clusters(b)
        assert a.meta["index"] == "rtree" and b.meta["index"] == "kdtree"

    def test_first_labels_recorded(self):
        pts = make_blobs(80, 2, 2, spread=1.0, domain=20.0, seed=16)
        res = kdd96_dbscan(pts, 2.0, 4)
        first = res.meta["first_labels"]
        assert len(first) == len(pts)
        # Classic first-come labels agree with canonical labels on cores.
        core = res.core_mask
        assert (first[core] >= 0).all()


@settings(max_examples=25, deadline=None)
@given(
    pts=arrays(
        np.float64,
        st.tuples(st.integers(2, 60), st.integers(1, 4)),
        elements=st.floats(0, 30),
    ),
    eps=st.floats(0.3, 12.0),
    min_pts=st.integers(1, 8),
)
def test_property_all_exact_algorithms_agree(pts, eps, min_pts):
    reference = brute_dbscan(pts, eps, min_pts)
    for fn in (exact_grid_dbscan, cit08_dbscan, kdd96_dbscan):
        got = fn(pts, eps, min_pts)
        assert got.same_clusters(reference)
        assert (got.core_mask == reference.core_mask).all()
