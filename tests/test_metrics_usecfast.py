"""Tests for the graded cluster metrics and the grid-accelerated USEC solver."""

import numpy as np
import pytest

from repro.core.result import Clustering
from repro.errors import DataError
from repro.evaluation.compare import best_match_jaccard, cluster_f1
from repro.hardness import planted_instance, random_instance, usec_brute
from repro.hardness.usec_fast import usec_grid


def make(n, clusters, cores):
    mask = np.zeros(n, dtype=bool)
    mask[list(cores)] = True
    return Clustering(n, clusters, mask)


class TestBestMatchJaccard:
    def test_identical(self):
        a = make(6, [{0, 1, 2}, {3, 4}], {0, 3})
        assert best_match_jaccard(a, a) == 1.0

    def test_disjoint(self):
        a = make(4, [{0, 1}], {0})
        b = make(4, [{2, 3}], {2})
        assert best_match_jaccard(a, b) == 0.0

    def test_partial_overlap(self):
        a = make(4, [{0, 1}], {0})
        b = make(4, [{0, 1, 2}], {0})
        assert best_match_jaccard(a, b) == pytest.approx(2 / 3)

    def test_both_empty(self):
        a = make(3, [], set())
        assert best_match_jaccard(a, a) == 1.0

    def test_one_empty(self):
        a = make(3, [], set())
        b = make(3, [{0}], {0})
        assert best_match_jaccard(a, b) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(DataError):
            best_match_jaccard(make(3, [], set()), make(4, [], set()))

    def test_symmetric(self):
        a = make(6, [{0, 1, 2}], {0})
        b = make(6, [{1, 2, 3}, {4, 5}], {1, 4})
        assert best_match_jaccard(a, b) == best_match_jaccard(b, a)


class TestClusterF1:
    def test_identical(self):
        a = make(5, [{0, 1}, {2, 3}], {0, 2})
        assert cluster_f1(a, a) == 1.0

    def test_no_overlap(self):
        a = make(4, [{0, 1}], {0})
        b = make(4, [{2, 3}], {2})
        assert cluster_f1(a, b) == 0.0

    def test_split_cluster_partial_credit(self):
        # b splits a's big cluster in two: b's halves each overlap a's
        # cluster at Jaccard 0.5, not above the threshold, so recall drops.
        a = make(8, [{0, 1, 2, 3, 4, 5, 6, 7}], {0})
        b = make(8, [{0, 1, 2, 3}, {4, 5, 6, 7}], {0, 4})
        assert cluster_f1(a, b) == 0.0
        assert cluster_f1(a, b, threshold=0.4) == 1.0

    def test_threshold_strictness(self):
        a = make(4, [{0, 1}], {0})
        b = make(4, [{0, 1, 2, 3}], {0})
        # Jaccard = 0.5, strictly-greater threshold 0.5 excludes the match.
        assert cluster_f1(a, b, threshold=0.5) == 0.0
        assert cluster_f1(a, b, threshold=0.49) == 1.0

    def test_approx_vs_exact_high_f1(self):
        from repro.algorithms.approx import approx_dbscan
        from repro.algorithms.brute import brute_dbscan
        from .conftest import make_blobs

        pts = make_blobs(200, 3, 3, spread=1.2, domain=35.0, seed=0)
        a = approx_dbscan(pts, 2.5, 5, rho=0.1)
        b = brute_dbscan(pts, 2.5, 5)
        assert cluster_f1(a, b) >= 0.8
        assert best_match_jaccard(a, b) >= 0.8


class TestUSECGrid:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_brute_random(self, d):
        for seed in range(6):
            inst = random_instance(60, 40, d, radius=25.0, seed=seed)
            assert usec_grid(inst) == usec_brute(inst)

    @pytest.mark.parametrize("answer", [True, False])
    def test_matches_brute_planted(self, answer):
        for seed in range(4):
            inst = planted_instance(50, 25, 3, radius=12.0, answer=answer, seed=seed)
            assert usec_grid(inst) == answer

    def test_boundary_pair(self):
        from repro.hardness import USECInstance

        inst = USECInstance(
            np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), radius=1.0
        )
        assert usec_grid(inst)

    @pytest.mark.parametrize("radius", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("center", [0.4, 1.1, 2.5])
    def test_exact_radius_probes(self, radius, center):
        # A point exactly ``radius`` from its centre (to float rounding)
        # is inside: both solvers decide against the shared sq_radius.
        from repro.hardness import USECInstance

        for sign in (1.0, -1.0):
            for d in (1, 2):
                point = np.full((1, d), 0.2)
                ball = point.copy()
                ball[0, 0] = center
                point[0, 0] = center + sign * radius
                inst = USECInstance(point, ball, radius)
                assert usec_brute(inst)
                assert usec_grid(inst) == usec_brute(inst)

    def test_single_point_single_ball(self):
        from repro.hardness import USECInstance

        inst = USECInstance(
            np.array([[5.0, 5.0, 5.0]]), np.array([[50.0, 50.0, 50.0]]), radius=1.0
        )
        assert not usec_grid(inst)

    def test_large_random_agreement(self):
        inst = random_instance(800, 500, 3, radius=6.0, domain=200.0, seed=42)
        assert usec_grid(inst) == usec_brute(inst)
