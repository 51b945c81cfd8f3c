"""The paper's central claims, as executable assertions.

Each test corresponds to a numbered claim of the paper; together they form
a machine-checked abstract.
"""

import numpy as np
import pytest

from repro import approx_dbscan, dbscan
from repro.algorithms.brute import brute_dbscan
from repro.evaluation.compare import sandwich_holds
from repro.hardness import random_instance, usec_brute, usec_via_dbscan

from .conftest import make_blobs


class TestSection11MisClaim:
    """Section 1.1: the original algorithm performs n range queries whose
    total output alone is Theta(n^2) when all points are within eps."""

    def test_footnote1_quadratic_retrieval(self):
        n = 300
        points = np.zeros((n, 2))  # all points coincide
        result = dbscan(points, 1.0, 5, algorithm="kdd96")
        # n queries, each returning all n points: n^2 retrieved.
        assert result.meta["range_queries"] == n
        assert result.meta["points_retrieved"] == n * n

    def test_index_choice_does_not_help(self):
        n = 200
        points = np.zeros((n, 3))
        for index in ("rtree", "kdtree"):
            from repro.algorithms.kdd96 import kdd96_dbscan

            result = kdd96_dbscan(points, 1.0, 5, index=index)
            assert result.meta["points_retrieved"] == n * n

    def test_grid_algorithm_avoids_the_blow_up(self):
        # Same adversarial input: the grid algorithm sees one dense cell
        # (every point core by the cell-size shortcut) and does no
        # quadratic distance work at all.
        n = 5000
        points = np.zeros((n, 2))
        result = dbscan(points, 1.0, 5, algorithm="grid")
        assert result.n_clusters == 1
        assert result.meta["grid_cells"] == 1


class TestSection22Gunawan:
    """Section 2.2: 2D is genuinely solved; the grid algorithm matches the
    unique DBSCAN output."""

    def test_gunawan_equals_brute_2d(self):
        pts = make_blobs(250, 2, 4, spread=1.2, domain=40.0, seed=0)
        gunawan = dbscan(pts, 2.5, 5, algorithm="gunawan2d")
        reference = brute_dbscan(pts, 2.5, 5)
        assert gunawan.same_clusters(reference)


class TestLemma4:
    """Lemma 4 / Theorem 1: DBSCAN solves USEC with MinPts = 1."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_reduction_faithful(self, d):
        for seed in range(6):
            inst = random_instance(40, 25, d, radius=30.0, seed=seed)
            via = usec_via_dbscan(
                inst, lambda P, e, m: dbscan(P, e, m, algorithm="grid")
            )
            assert via == usec_brute(inst)


class TestTheorem3Sandwich:
    """Theorem 3: the approximate result is sandwiched between exact
    DBSCAN at eps and at eps(1+rho)."""

    @pytest.mark.parametrize("rho", [0.001, 0.1, 1.0])
    def test_sandwich(self, rho):
        pts = make_blobs(180, 3, 4, spread=1.5, domain=30.0, seed=1)
        eps, min_pts = 2.2, 5
        approx = approx_dbscan(pts, eps, min_pts, rho=rho)
        exact = brute_dbscan(pts, eps, min_pts)
        inflated = brute_dbscan(pts, eps * (1 + rho), min_pts)
        assert sandwich_holds(exact, approx, inflated)


class TestSection52QualityNarrative:
    """Section 5.2: rho = 0.001 returns exactly DBSCAN's clusters at stable
    radii, and only deliberately boundary-hugging radii can break larger
    rho."""

    def test_default_rho_exact_on_stable_radius(self):
        rng = np.random.default_rng(2)
        pts = np.vstack([
            rng.normal(0, 1.0, size=(120, 3)),
            rng.normal(50, 1.0, size=(120, 3)),
        ])
        eps = 5.0  # blobs are 50 apart: hugely stable
        approx = approx_dbscan(pts, eps, 10, rho=0.001)
        exact = brute_dbscan(pts, eps, 10)
        assert approx.same_clusters(exact)

    def test_unstable_radius_breaks_large_rho_only(self):
        # Core-core gap a hair over eps: rho spanning the gap may merge,
        # and our implementation does for every rho whose inflated radius
        # covers the gap (duplicated points make this deterministic).
        a = np.tile([[0.0, 0.0]], (20, 1))
        b = np.tile([[2.001, 0.0]], (20, 1))
        pts = np.vstack([a, b])
        exact = brute_dbscan(pts, 2.0, 3)
        assert exact.n_clusters == 2
        merged = approx_dbscan(pts, 2.0, 3, rho=0.01)
        assert merged.n_clusters == 1  # 2.001 <= 2.0 * 1.01
        # But with the gap outside eps(1+rho) the result must stay exact.
        safe = approx_dbscan(pts, 2.0, 3, rho=0.0001)
        assert safe.same_clusters(exact)


class TestTheorem4LinearBehaviour:
    """Theorem 4 (shape): OurApprox scales gently with n on clustered data
    while the number of Lemma 5 cells stays O(n)."""

    def test_structure_size_linear(self):
        from repro.grid.hierarchy import FlatHierarchy

        sizes = []
        for n in (1000, 2000, 4000):
            pts = make_blobs(n, 3, 5, spread=1.0, domain=60.0, seed=3)
            sizes.append(FlatHierarchy(pts, 2.0, 0.001).node_count())
        # Doubling n must not more than ~double the structure (plus slack).
        assert sizes[2] <= sizes[0] * 4 * 1.5
