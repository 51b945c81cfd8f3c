"""Exactness of the "within eps" decision on adversarial coordinates.

Every result of the paper rests on the predicate ``dist(p, q) <= eps``.
Two input recipes put many pairs at exactly ``eps`` *and* far from the
origin, where an expanded-form distance ``|a|^2 + |b|^2 - 2 a.b`` on
absolute coordinates loses the decision:

* **dyadic** — coordinates ``k / 8`` (``k`` in ``[0, 64)``, or ``[0, 16)``
  from ``d = 4`` on, so high-d runs still have neighbours) shifted by
  ``2^30``.  Every coordinate difference and every squared distance is
  exact in float64, so brute force (difference form) is the truth.
* **decimal-tie spread** — multiples of ``0.1`` in ``[0, 1.1]^d`` in four
  blobs at x-offsets ``0``, ``1e5``, ``2e5`` and ``3e5``, ``eps = 0.3``:
  decimal ties at every offset.  The truth is KDD'96, whose tree kernels
  subtract the raw coordinates.

Every exact algorithm must return the truth, and the grid pipelines must
also do so through a forced two-worker pool and an ascending engine
sweep; the approximate algorithm must return the exact core mask and
satisfy Theorem 3's sandwich on all three paths.  Cases cover
duplicates, ``MinPts = 1`` (the USEC reduction) and ``d`` up to 7, where
the coarse-bucket join builds the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusteringEngine, StructureCache, approx_dbscan, dbscan
from repro.algorithms.brute import brute_dbscan
from repro.algorithms.kdd96 import kdd96_dbscan
from repro.parallel import ParallelConfig

FORCED = ParallelConfig(workers=2, min_points=0)
RHO = 0.001


@dataclass(frozen=True)
class Case:
    recipe: str
    seed: int
    d: int
    min_pts: int
    dups: int

    @property
    def eps(self) -> float:
        return 1.0 if self.recipe == "dyadic" else 0.3

    @property
    def sweep_eps(self):
        return [0.5, 0.75, 1.0] if self.recipe == "dyadic" else [0.1, 0.2, 0.3]

    def points(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.recipe == "dyadic":
            span = 64 if self.d <= 3 else 16
            n = 60 + 17 * self.seed
            pts = rng.integers(0, span, size=(n, self.d)) / 8.0 + float(2 ** 30)
        else:
            pts = rng.integers(0, 12, size=(200, self.d)) / 10.0
            pts[:, 0] += rng.integers(0, 4, size=200) * 1e5
        return np.vstack([pts, pts[: self.dups]])

    def truth(self, points, eps):
        if self.recipe == "dyadic":
            return brute_dbscan(points, eps, self.min_pts)
        return kdd96_dbscan(points, eps, self.min_pts)

    def algorithms(self):
        algos = ["grid", "kdd96", "cit08", "brute"]
        return algos + ["gunawan2d"] if self.d == 2 else algos


CASES = st.builds(
    Case,
    recipe=st.sampled_from(["dyadic", "spread"]),
    seed=st.integers(0, 19),
    d=st.integers(2, 7),
    min_pts=st.sampled_from([1, 2, 4]),
    dups=st.sampled_from([0, 7]),
)
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


def assert_sandwiched(case, points, eps, result, lower):
    """Exact core mask plus Theorem 3's containments."""
    assert np.array_equal(result.core_mask, lower.core_mask)
    upper = case.truth(points, eps * (1.0 + RHO))
    for C in lower.clusters:
        assert any(C <= D for D in result.clusters)
    for D in result.clusters:
        assert any(D <= E for E in upper.clusters)
        assert any(C <= D for C in lower.clusters)


@SETTINGS
@given(case=CASES)
def test_serial(case):
    points = case.points()
    truth = case.truth(points, case.eps)
    for algo in case.algorithms():
        assert dbscan(points, case.eps, case.min_pts, algorithm=algo) == truth, algo
    result = approx_dbscan(points, case.eps, case.min_pts, rho=RHO)
    assert_sandwiched(case, points, case.eps, result, truth)


@SETTINGS
@given(case=CASES)
def test_forced_workers(case):
    points = case.points()
    truth = case.truth(points, case.eps)
    for algo in ("grid", "gunawan2d") if case.d == 2 else ("grid",):
        result = dbscan(points, case.eps, case.min_pts, algorithm=algo, workers=FORCED)
        assert result == truth, algo
    result = approx_dbscan(points, case.eps, case.min_pts, rho=RHO, workers=FORCED)
    assert_sandwiched(case, points, case.eps, result, truth)


@SETTINGS
@given(case=CASES)
def test_ascending_sweep(case):
    points = case.points()
    engine = ClusteringEngine(points, cache=StructureCache())
    exact = engine.sweep(case.sweep_eps, case.min_pts)
    approx = engine.sweep(case.sweep_eps, case.min_pts, algorithm="approx", rho=RHO)
    for eps, result, approx_result in zip(case.sweep_eps, exact, approx):
        truth = case.truth(points, eps)
        assert result == truth, eps
        assert_sandwiched(case, points, eps, approx_result, truth)


def test_high_d_cases_use_the_join():
    # The d = 7 cases must exercise the coarse-bucket join builder.
    case = Case("dyadic", seed=3, d=7, min_pts=2, dups=7)
    points = case.points()
    result = dbscan(points, case.eps, case.min_pts)
    assert result.meta["kernel_counters"].get("adjacency_join", 0) == 1
    assert result == case.truth(points, case.eps)
