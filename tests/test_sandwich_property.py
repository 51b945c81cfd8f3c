"""Property-based test of the Sandwich Theorem (Theorem 3).

A rho-approximate clustering (any legal answer to Problem 2, hence any
output of OurApprox) is *sandwiched* between the exact results at the two
radii:

1. every exact DBSCAN(eps) cluster is contained in some returned cluster;
2. every returned cluster is contained in some exact DBSCAN(eps(1+rho))
   cluster;
3. every returned cluster contains at least one exact DBSCAN(eps) cluster
   (it owns a core point, whose eps-cluster it must have swallowed by 1).

The oracle is the O(n^2) brute-force algorithm at eps and at eps(1+rho).
The property is exercised for *random* eps and rho via hypothesis and for
fixed paper-flavoured configurations, against both the serial and the
``workers>1`` approx pipelines — the approximation guarantee must
survive parallelisation, not just label equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.approx import approx_dbscan
from repro.algorithms.brute import brute_dbscan
from repro.data.seed_spreader import seed_spreader
from repro.data.shapes import two_moons
from repro.parallel import ParallelConfig

from .conftest import make_blobs


def serial_approx(pts, eps, min_pts, rho):
    return approx_dbscan(pts, eps, min_pts, rho=rho, workers=1)


def parallel_approx(pts, eps, min_pts, rho):
    return approx_dbscan(
        pts, eps, min_pts, rho=rho, workers=ParallelConfig(workers=2, min_points=0)
    )


RUNNERS = {"serial": serial_approx, "parallel": parallel_approx}


def assert_sandwiched(pts, eps, min_pts, rho, result):
    """The three containments of Theorem 3, verified by brute force."""
    lower = brute_dbscan(pts, eps, min_pts)
    upper = brute_dbscan(pts, eps * (1.0 + rho), min_pts)

    # Core points answer Problem 1 exactly: the core mask is not approximated.
    assert np.array_equal(result.core_mask, lower.core_mask)

    for C in lower.clusters:
        assert any(C <= D for D in result.clusters), (
            f"exact eps-cluster of size {len(C)} not contained in any "
            f"approx cluster (eps={eps:g}, rho={rho:g})"
        )
    for D in result.clusters:
        assert any(D <= E for E in upper.clusters), (
            f"approx cluster of size {len(D)} not contained in any exact "
            f"eps(1+rho)-cluster (eps={eps:g}, rho={rho:g})"
        )
        assert any(C <= D for C in lower.clusters), (
            f"approx cluster of size {len(D)} contains no exact eps-cluster "
            f"(eps={eps:g}, rho={rho:g})"
        )


class TestSandwichFixed:
    @pytest.mark.parametrize("runner", RUNNERS, ids=RUNNERS.keys())
    @pytest.mark.parametrize("rho", [0.001, 0.1, 1.0])
    def test_seed_spreader(self, runner, rho):
        ds = seed_spreader(350, 3, seed=41)
        for eps in (200.0, 3000.0):
            result = RUNNERS[runner](ds.points, eps, 10, rho)
            assert_sandwiched(ds.points, eps, 10, rho, result)

    @pytest.mark.parametrize("runner", RUNNERS, ids=RUNNERS.keys())
    def test_two_moons_near_touching(self, runner):
        # eps close to the inter-moon gap: the regime where a large rho
        # visibly merges the moons — the sandwich must hold regardless.
        pts, _ = two_moons(260, noise=0.05, seed=42)
        for rho in (0.01, 0.5):
            result = RUNNERS[runner](pts, 0.22, 8, rho)
            assert_sandwiched(pts, 0.22, 8, rho, result)

    def test_merge_actually_possible(self):
        # Sanity that the property is not vacuous: with a huge rho the
        # approx result may legally merge clusters the exact one keeps
        # apart, and the sandwich still holds.
        pts = make_blobs(200, 2, 3, spread=0.8, domain=30.0, seed=43)
        rho = 2.0
        result = serial_approx(pts, 2.0, 5, rho)
        lower = brute_dbscan(pts, 2.0, 5)
        assert result.n_clusters <= lower.n_clusters
        assert_sandwiched(pts, 2.0, 5, rho, result)


class TestSandwichRandomised:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        eps=st.floats(0.8, 12.0),
        rho=st.floats(0.0005, 1.5),
        min_pts=st.integers(2, 12),
    )
    def test_random_eps_rho_serial(self, seed, eps, rho, min_pts):
        pts = make_blobs(160, 3, 3, spread=1.2, domain=45.0, seed=seed)
        result = serial_approx(pts, eps, min_pts, rho)
        assert_sandwiched(pts, eps, min_pts, rho, result)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        eps=st.floats(0.8, 12.0),
        rho=st.floats(0.0005, 1.5),
    )
    def test_random_eps_rho_parallel(self, seed, eps, rho):
        pts = make_blobs(160, 3, 3, spread=1.2, domain=45.0, seed=seed)
        result = parallel_approx(pts, eps, 8, rho)
        assert_sandwiched(pts, eps, 8, rho, result)
        # And the parallel approx path must agree with the serial one
        # exactly — same core mask, same edge decisions.
        assert np.array_equal(result.labels, serial_approx(pts, eps, 8, rho).labels)
