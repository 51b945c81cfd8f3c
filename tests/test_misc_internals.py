"""Coverage for smaller internals: timing helpers, BCP auto strategy,
hierarchy root enumeration, rng plumbing."""

import numpy as np
import pytest

from repro.evaluation.timing import TimedRun, geometric_growth
import importlib

# The package re-exports the bcp *function* under the same name as the
# module, so resolve the module explicitly.
bcp_mod = importlib.import_module("repro.geometry.bcp")
from repro.utils.rng import make_rng, spawn

from .oracles.counting import CountingHierarchy


class TestGeometricGrowth:
    def test_ratios(self):
        assert geometric_growth([1.0, 2.0, 8.0]) == [2.0, 4.0]

    def test_skips_zero_base(self):
        assert geometric_growth([0.0, 2.0, 4.0]) == [2.0]

    def test_empty(self):
        assert geometric_growth([]) == []
        assert geometric_growth([5.0]) == []


class TestTimedRun:
    def test_extra_dict_default(self):
        run = TimedRun("x", 1.0)
        run.extra["note"] = "hi"
        assert TimedRun("y", 1.0).extra == {}


class TestBCPAutoStrategy:
    def test_small_inputs_use_brute(self):
        a = np.zeros((10, 2))
        b = np.zeros((10, 2))
        assert bcp_mod._pick_strategy(a, b) == "brute"

    def test_large_inputs_use_kdtree(self):
        a = np.zeros((1000, 2))
        b = np.zeros((1000, 2))
        assert bcp_mod._pick_strategy(a, b) == "kdtree"

    def test_auto_gives_correct_answer_both_regimes(self):
        rng = np.random.default_rng(0)
        for n in (20, 600):
            a = rng.uniform(0, 100, size=(n, 2))
            b = rng.uniform(0, 100, size=(n, 2))
            sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            expected = np.sqrt(sq.min())
            assert bcp_mod.bcp(a, b).distance == pytest.approx(expected)


class TestHierarchyRootEnumeration:
    def test_enumeration_path_small_structure(self):
        # One root cell: queries must fall through to the stored-roots scan
        # (the per-core-cell configuration of the approx algorithm).
        pts = np.random.default_rng(1).uniform(0, 0.5, size=(50, 2))
        structure = CountingHierarchy(pts, 1.0, 0.01)
        assert len(structure._roots) <= 4
        assert structure.count(np.array([0.25, 0.25])) == 50

    def test_scan_path_many_roots(self):
        # Many roots spread over a wide domain: the coordinate-box
        # enumeration around q engages instead.
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1000, size=(400, 2))
        structure = CountingHierarchy(pts, 5.0, 0.01)
        assert len(structure._roots) > 100
        q = pts[0]
        ans = structure.count(q)
        sq = ((pts - q) ** 2).sum(axis=1)
        lo = int((sq <= 25.0).sum())
        hi = int((sq <= (5.0 * 1.01) ** 2).sum())
        assert lo <= ans <= hi

    def test_query_far_outside_domain(self):
        pts = np.random.default_rng(3).uniform(0, 10, size=(60, 3))
        structure = CountingHierarchy(pts, 2.0, 0.05)
        assert structure.count(np.array([1e6, 1e6, 1e6])) == 0


class TestRNG:
    def test_make_rng_from_int(self):
        a = make_rng(7)
        b = make_rng(7)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_make_rng_none(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_spawn_children_independent(self):
        rng = make_rng(5)
        kids = spawn(rng, 3)
        assert len(kids) == 3
        draws = [k.integers(0, 1_000_000) for k in kids]
        assert len(set(draws)) == 3
