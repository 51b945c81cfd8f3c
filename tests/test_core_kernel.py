"""Differential oracle + property tests for the staged core/border kernels.

The contract under test (see ``repro/core/corekernel.py``): the staged,
batched core-labeling and border-assignment kernels must produce results
**byte-identical** to the reference per-cell loops
(``tests/oracles/loops.py``) on every path that consumes them — serial
across dims and ``MinPts``, ``known_core`` sweep carry, core shard
restriction (``cells=``), ``workers>1`` pipeline runs, and the degenerate
empty/singleton grids.
``loops.neighbor_counts`` stays the brute oracle grounding both in the
raw ``|B(p, eps)| >= MinPts`` predicate.  On top of the end-to-end oracle: the ``core_*``/``border_*``
counter funnels must partition cleanly, and a deadline must abort the
staged batched loops promptly under an injected clock skip.
"""

import pickle
import time

import numpy as np
import pytest

from repro.algorithms.exact_grid import exact_grid_dbscan
from repro.core import cellgraph as cg
from repro.core.border import assign_borders
from repro.core.corekernel import BorderAssignments, grid_soa
from repro.core.labeling import label_cores
from repro.errors import TimeoutExceeded
from repro.grid import counters
from repro.grid.cells import Grid
from repro.parallel.executor import ParallelConfig, parallel_label_cores
from repro.runtime import Deadline, inject_faults
from repro.runtime.pipeline import PipelineHooks

from .oracles import loops


def _dataset(seed: int, n: int, d: int, eps: float):
    """Blended blobs + noise: dense cells, sparse cells, and noise cells."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(4, d))
    blob = centers[rng.integers(0, 4, size=n // 2)] + rng.normal(
        0, 3.0, size=(n // 2, d)
    )
    noise = rng.uniform(0, 100, size=(n - n // 2, d))
    return Grid(np.vstack([blob, noise]), eps)


def _labeled(seed: int, n: int, d: int, eps: float, min_pts: int):
    grid = _dataset(seed, n, d, eps)
    core = loops.label_cores(grid, min_pts)
    labels, _ = cg.exact_components(grid, core)
    return grid, core, labels


class TestCoreOracle:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("min_pts", [2, 5, 12])
    def test_staged_matches_loop_and_brute(self, d, min_pts):
        grid = _dataset(d * 10 + min_pts, 800, d, 7.0)
        loop = loops.label_cores(grid, min_pts)
        staged = label_cores(grid, min_pts)
        assert np.array_equal(staged, loop)
        # neighbor_counts stays the brute oracle grounding both kernels.
        assert np.array_equal(loop, loops.neighbor_counts(grid) >= min_pts)

    def test_min_pts_one_accepts_every_occupied_cell(self):
        grid = _dataset(3, 200, 2, 4.0)
        assert label_cores(grid, 1).all()

    def test_allpairs_adjacency_regime(self):
        # d=5 on a sparse grid: the coarse-bucket join (which replaced the
        # all-pairs regime) builds the adjacency the staged kernel reads.
        grid = _dataset(4, 300, 5, 40.0)
        before = counters.snapshot()
        grid.warm_neighbors()
        assert counters.delta_since(before).get("adjacency_join") == 1
        assert np.array_equal(
            label_cores(grid, 4),
            loops.label_cores(grid, 4),
        )

    def test_known_core_carry(self):
        grid_small = _dataset(5, 700, 2, 5.0)
        known = loops.label_cores(grid_small, 5)
        assert known.any() and not known.all()
        grid = Grid(grid_small.points, 8.0)
        plain = loops.label_cores(grid, 5)
        for kernel in (label_cores, loops.label_cores):
            carried = kernel(grid, 5, known_core=known)
            assert np.array_equal(carried, plain), kernel.__module__

    def test_all_known_short_circuits(self):
        grid = _dataset(6, 300, 2, 6.0)
        known = np.ones(len(grid.points), dtype=bool)
        assert label_cores(grid, 3, known_core=known).all()

    def test_shard_restriction(self):
        grid = _dataset(7, 600, 2, 6.0)
        keys = list(grid.cells.keys())
        for shard in (keys[: len(keys) // 2], keys[::3], []):
            assert np.array_equal(
                label_cores(grid, 5, cells=shard),
                loops.label_cores(grid, 5, cells=shard),
            )

    def test_shard_with_known_core_stays_inside_shard(self):
        # The loop leaves known points outside the shard's cells False;
        # the staged kernel must not mark them either.
        grid = _dataset(8, 500, 2, 6.0)
        known = loops.label_cores(grid, 5)
        keys = list(grid.cells.keys())
        half = keys[: len(keys) // 2]
        assert np.array_equal(
            label_cores(grid, 5, cells=half, known_core=known),
            loops.label_cores(grid, 5, cells=half, known_core=known),
        )

    def test_empty_and_singleton_grids(self):
        empty = Grid(np.empty((0, 2)), 1.0)
        assert len(label_cores(empty, 3)) == 0
        single = Grid(np.zeros((1, 2)), 1.0)
        assert np.array_equal(label_cores(single, 1), np.array([True]))
        assert np.array_equal(label_cores(single, 2), np.array([False]))


class TestBorderOracle:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("min_pts", [3, 6])
    def test_staged_matches_loop(self, d, min_pts):
        grid, core, labels = _labeled(d * 7 + min_pts, 800, d, 7.0, min_pts)
        loop = loops.assign_borders(grid, core, labels)
        staged = assign_borders(grid, core, labels)
        assert staged == loop
        assert dict(staged.items()) == loop

    def test_no_cores_anywhere(self):
        grid = _dataset(21, 100, 2, 1.0)
        out = assign_borders(grid, np.zeros(100, bool), np.zeros(100, int))
        assert len(out) == 0 and out == {}

    def test_empty_grid(self):
        grid = Grid(np.empty((0, 2)), 1.0)
        out = assign_borders(grid, np.empty(0, bool), np.empty(0, int))
        assert len(out) == 0


class TestParallelOracle:
    def test_workers_match_serial_loop(self):
        grid, core, labels = _labeled(30, 1200, 2, 6.0, 5)
        ref_b = loops.assign_borders(grid, core, labels)
        cfg = ParallelConfig(workers=3, min_points=0)
        par_core = parallel_label_cores(grid, 5, cfg)
        assert np.array_equal(par_core, core)
        # Borders run in the parent on the pooled core mask.
        seen = {}
        exact_grid_dbscan(
            grid.points, grid.eps, 5, workers=cfg,
            hooks=PipelineHooks(on_phase=seen.__setitem__),
        )
        assert dict(seen["borders"]) == ref_b

    def test_workers_with_known_core_carry(self):
        grid_small = _dataset(31, 1000, 2, 4.0)
        known = loops.label_cores(grid_small, 5)
        grid = Grid(grid_small.points, 6.0)
        plain = loops.label_cores(grid, 5)
        cfg = ParallelConfig(workers=2, min_points=0)
        par = parallel_label_cores(grid, 5, cfg, known_core=known)
        assert np.array_equal(par, plain)


class TestBorderAssignments:
    def _sample(self):
        grid, core, labels = _labeled(40, 500, 2, 6.0, 5)
        return assign_borders(grid, core, labels)

    def test_mapping_protocol(self):
        ba = self._sample()
        assert len(ba) > 0
        as_dict = dict(ba.items())
        assert dict(ba) == as_dict
        assert ba == as_dict and as_dict == dict(ba)
        assert sorted(ba) == sorted(as_dict)
        assert set(ba.keys()) == set(as_dict)
        assert list(ba.values()) == [as_dict[p] for p in ba.keys()]
        first = next(iter(ba))
        assert first in ba and ba.get(first) == as_dict[first]
        missing = max(as_dict) + 10_000
        assert missing not in ba
        assert ba.get(missing) is None and ba.get(missing, ()) == ()
        with pytest.raises(KeyError):
            ba[missing]

    def test_rows_are_sorted_unique(self):
        ba = self._sample()
        for _, cids in ba.items():
            assert list(cids) == sorted(set(cids))

    def test_pickle_roundtrip(self):
        ba = self._sample()
        clone = pickle.loads(pickle.dumps(ba))
        assert isinstance(clone, BorderAssignments)
        assert clone == ba and dict(clone.items()) == dict(ba.items())

    def test_checkpoint_flatten_roundtrip(self):
        from repro.runtime.checkpoint import _flatten_borders, _unflatten_borders

        ba = self._sample()
        assert _unflatten_borders(*_flatten_borders(ba)) == dict(ba.items())

    def test_empty(self):
        ba = BorderAssignments.empty()
        assert len(ba) == 0 and ba == {} and dict(ba) == {}


class TestKernelInternals:
    def test_core_funnel_partitions(self):
        grid = _dataset(50, 900, 2, 6.0)
        before = counters.snapshot()
        label_cores(grid, 5)
        delta = counters.delta_since(before)
        assert delta["core_cells_total"] == len(grid.cells)
        assert delta["core_cells_total"] == (
            delta.get("core_dense_cells", 0) + delta.get("core_sparse_cells", 0)
        )
        assert delta["core_points_total"] == len(grid.points)
        assert delta["core_points_total"] == (
            delta.get("core_dense_points", 0)
            + delta.get("core_known_points", 0)
            + delta.get("core_counted_points", 0)
        )
        assert delta.get("core_retired_points", 0) <= delta.get(
            "core_counted_points", 0
        )

    def test_border_funnel_partitions_with_explicit_noise(self):
        grid, core, labels = _labeled(51, 900, 2, 6.0, 5)
        before = counters.snapshot()
        out = assign_borders(grid, core, labels)
        delta = counters.delta_since(before)
        # The funnel partitions cleanly: every non-core point is either
        # assigned or an explicit noise verdict — including the points in
        # cells with zero candidate cores, which the loop skips silently.
        assert delta["border_points_total"] == int((~core).sum())
        assert delta["border_points_total"] == (
            delta.get("border_assigned", 0) + delta.get("border_noise", 0)
        )
        assert delta.get("border_no_candidates", 0) <= delta.get("border_noise", 0)
        assert delta.get("border_assigned", 0) == len(out)

    def test_zero_candidate_cells_counted_as_noise(self):
        # Two far-apart singletons plus one dense blob: the singletons'
        # cells have no candidate core anywhere in their neighbourhood.
        rng = np.random.default_rng(52)
        blob = rng.normal(50, 0.5, size=(30, 2))
        lonely = np.array([[0.0, 0.0], [100.0, 100.0]])
        grid = Grid(np.vstack([blob, lonely]), 3.0)
        core = loops.label_cores(grid, 5)
        assert core[:30].all() and not core[30:].any()
        labels, _ = cg.exact_components(grid, core)
        before = counters.snapshot()
        out = assign_borders(grid, core, labels)
        delta = counters.delta_since(before)
        assert delta.get("border_no_candidates", 0) == 2
        assert delta["border_noise"] == 2
        assert out == loops.assign_borders(grid, core, labels)

    def test_grid_soa_is_cached_and_consistent(self):
        grid = _dataset(53, 400, 2, 6.0)
        soa = grid_soa(grid)
        assert grid_soa(grid) is soa
        assert int(soa.sizes.sum()) == len(grid.points)
        # The concatenation partitions the points in cell order.
        assert sorted(soa.cat.tolist()) == list(range(len(grid.points)))
        for t, (cell, idx) in enumerate(grid.cells.items()):
            start = soa.offsets[t]
            assert np.array_equal(soa.cat[start:start + soa.sizes[t]], idx)
            assert soa.index[cell] == t


class TestDeadline:
    """The staged kernels poll per batched tile, not per cell — a huge
    pass must still abort promptly when the clock skips past the budget."""

    TOLERANCE = 0.5
    SKEW = 1000.0

    def test_staged_labeling_aborts_promptly(self):
        grid = _dataset(60, 3000, 2, 2.0)
        start = time.perf_counter()
        with inject_faults(clock_skew=self.SKEW, skew_after=1):
            with pytest.raises(TimeoutExceeded):
                label_cores(grid, 8, deadline=Deadline(5.0))
        assert time.perf_counter() - start < self.TOLERANCE

    def test_staged_borders_abort_promptly(self):
        grid, core, labels = _labeled(61, 3000, 2, 4.0, 5)
        start = time.perf_counter()
        with inject_faults(clock_skew=self.SKEW, skew_after=1):
            with pytest.raises(TimeoutExceeded):
                assign_borders(grid, core, labels, deadline=Deadline(5.0))
        assert time.perf_counter() - start < self.TOLERANCE

    def test_tile_level_polls_fire_mid_stage(self):
        # Let the first few clock reads through so the abort comes from a
        # poll *inside* the size-class tile loop, not the entry check.
        grid = _dataset(62, 3000, 2, 2.0)
        with inject_faults(clock_skew=self.SKEW, skew_after=3) as plan:
            with pytest.raises(TimeoutExceeded):
                label_cores(grid, 8, deadline=Deadline(5.0))
        assert plan.clock_reads > 3
