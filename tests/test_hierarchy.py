"""Tests for the pointer-based Lemma 5 reference hierarchy.

:class:`~tests.oracles.counting.CountingHierarchy` is the oracle the
production :class:`~repro.grid.hierarchy.FlatHierarchy` is checked
against (``test_flat_hierarchy.py``), so it must honour the central
contract itself: every answer lies in
``[|B(q, eps) ∩ P|, |B(q, eps(1+rho)) ∩ P|]``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DataError, ParameterError

from .oracles.counting import CountingHierarchy


def exact_counts(points, q, radius):
    sq = ((points - q) ** 2).sum(axis=1)
    return int((sq <= radius * radius).sum())


def assert_contract(structure, points, q, eps, rho):
    ans = structure.count(q)
    lo = exact_counts(points, q, eps)
    hi = exact_counts(points, q, eps * (1 + rho))
    assert lo <= ans <= hi, (lo, ans, hi)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            CountingHierarchy(np.empty((0, 2)), 1.0, 0.1)

    def test_rejects_bad_eps(self):
        with pytest.raises(ParameterError):
            CountingHierarchy(np.zeros((3, 2)), 0.0, 0.1)

    def test_rejects_bad_rho(self):
        with pytest.raises(ParameterError):
            CountingHierarchy(np.zeros((3, 2)), 1.0, -0.5)

    def test_level_count_formula(self):
        pts = np.zeros((5, 2))
        # h = max(1, 1 + ceil(log2(1/rho)))
        assert CountingHierarchy(pts, 1.0, 1.5).n_levels == 1
        assert CountingHierarchy(pts, 1.0, 0.5).n_levels == 2
        assert CountingHierarchy(pts, 1.0, 0.1).n_levels == 5
        assert CountingHierarchy(pts, 1.0, 0.001).n_levels == 11

    def test_node_count_positive(self):
        rng = np.random.default_rng(0)
        structure = CountingHierarchy(rng.uniform(size=(50, 2)), 0.3, 0.1)
        assert structure.node_count() >= 1

    def test_verbatim_structure_has_more_nodes(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 5, size=(200, 2))
        verbatim = CountingHierarchy(pts, 1.0, 0.01, exact_leaf_size=0)
        pruned = CountingHierarchy(pts, 1.0, 0.01)
        assert verbatim.node_count() >= pruned.node_count()


class TestCountContract:
    @pytest.mark.parametrize("rho", [0.001, 0.01, 0.1, 0.5])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_uniform_data(self, rho, d):
        rng = np.random.default_rng(hash((rho, d)) % 2**32)
        pts = rng.uniform(0, 20, size=(300, d))
        eps = 3.0
        structure = CountingHierarchy(pts, eps, rho)
        for _ in range(15):
            q = rng.uniform(-2, 22, size=d)
            assert_contract(structure, pts, q, eps, rho)

    @pytest.mark.parametrize("exact_leaf_size", [0, 1, 8, 1000])
    def test_leaf_size_variants(self, exact_leaf_size):
        rng = np.random.default_rng(42)
        pts = rng.normal(5, 2, size=(250, 3))
        eps, rho = 1.5, 0.05
        structure = CountingHierarchy(pts, eps, rho, exact_leaf_size=exact_leaf_size)
        for _ in range(15):
            q = rng.normal(5, 3, size=3)
            assert_contract(structure, pts, q, eps, rho)

    def test_clustered_data(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([
            rng.normal(0, 0.3, size=(150, 2)),
            rng.normal(10, 0.3, size=(150, 2)),
        ])
        structure = CountingHierarchy(pts, 1.0, 0.01)
        for q in [np.zeros(2), np.array([10.0, 10.0]), np.array([5.0, 5.0])]:
            assert_contract(structure, pts, q, 1.0, 0.01)

    def test_duplicate_points(self):
        pts = np.tile(np.array([[3.0, 3.0]]), (97, 1))
        structure = CountingHierarchy(pts, 1.0, 0.01)
        assert structure.count(np.array([3.0, 3.0])) == 97
        assert structure.count(np.array([3.0, 4.05])) == 0

    def test_query_exactly_on_boundary_band(self):
        # Points in the (eps, eps(1+rho)] annulus may or may not be counted.
        pts = np.array([[0.0, 0.0], [1.005, 0.0]])
        structure = CountingHierarchy(pts, 1.0, 0.01)
        ans = structure.count(np.zeros(2))
        assert 1 <= ans <= 2

    def test_big_rho(self):
        pts = np.random.default_rng(3).uniform(0, 10, size=(100, 2))
        structure = CountingHierarchy(pts, 2.0, 2.0)  # rho > 1: single level
        assert structure.n_levels == 1
        for q in pts[:10]:
            assert_contract(structure, pts, q, 2.0, 2.0)


class TestContainsAny:
    def test_definitely_yes(self):
        pts = np.array([[0.0, 0.0]])
        structure = CountingHierarchy(pts, 1.0, 0.01)
        assert structure.contains_any(np.array([0.5, 0.0]))

    def test_definitely_no(self):
        pts = np.array([[0.0, 0.0]])
        structure = CountingHierarchy(pts, 1.0, 0.01)
        assert not structure.contains_any(np.array([5.0, 0.0]))

    def test_consistent_with_count(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 15, size=(200, 3))
        structure = CountingHierarchy(pts, 2.0, 0.05)
        for _ in range(25):
            q = rng.uniform(0, 15, size=3)
            within_eps = exact_counts(pts, q, 2.0)
            within_outer = exact_counts(pts, q, 2.0 * 1.05)
            got = structure.contains_any(q)
            if within_eps > 0:
                assert got
            if within_outer == 0:
                assert not got


@settings(max_examples=60, deadline=None)
@given(
    pts=arrays(np.float64, st.tuples(st.integers(1, 50), st.just(2)),
               elements=st.floats(0, 50)),
    q=arrays(np.float64, (2,), elements=st.floats(-5, 55)),
    eps=st.floats(0.5, 10.0),
    rho=st.sampled_from([0.001, 0.01, 0.1, 0.3]),
)
def test_property_count_contract(pts, q, eps, rho):
    structure = CountingHierarchy(pts, eps, rho)
    ans = structure.count(q)
    # Use a tiny relative slack on the radii: the structure compares
    # squared distances computed through box bounds, whose last-ulp
    # rounding can differ from the direct computation at exact boundaries.
    lo = exact_counts(pts, q, eps * (1 - 1e-12))
    hi = exact_counts(pts, q, eps * (1 + rho) * (1 + 1e-12))
    assert lo <= ans <= hi


@settings(max_examples=40, deadline=None)
@given(
    pts=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
               elements=st.floats(0, 20)),
    eps=st.floats(0.5, 5.0),
    rho=st.sampled_from([0.01, 0.1]),
)
def test_property_self_queries_count_self(pts, eps, rho):
    # Querying at a data point must count at least that point.
    structure = CountingHierarchy(pts, eps, rho)
    for q in pts[:5]:
        assert structure.count(q) >= 1
