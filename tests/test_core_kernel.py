"""Differential oracle + property tests for the staged core/border kernels.

The contract under test (see ``repro/core/corekernel.py``): the staged,
batched core-labeling and border-assignment kernels must produce results
**byte-identical** to the reference per-cell loops
(``tests/oracles/loops.py``) on every path that consumes them — serial
across dims and ``MinPts``, ``known_core`` sweep carry, the count split
into live-cell ranges of one plan (what ``workers>1`` fans out),
``workers>1`` pipeline runs, and the degenerate empty/singleton grids.
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
from repro.core.corekernel import BorderAssignments
from repro.core.labeling import count_cores, label_cores, plan_cores
from repro.errors import TimeoutExceeded
from repro.geometry import distance as dm
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
        # Plan once, count each live-cell range on its own: the ranges'
        # core indices are disjoint and lie in their own cells, and their
        # union is the full pass.
        grid = _dataset(7, 600, 2, 6.0)
        full = loops.label_cores(grid, 5)
        for n_tasks in (1, 2, 3, 8, 10**6):
            plan = plan_cores(grid, 5)
            ranges = plan.ranges(n_tasks)
            assert 1 <= len(ranges) <= n_tasks
            results = [count_cores(grid, plan, lo, hi) for lo, hi in ranges]
            owner = np.zeros(len(grid.points), dtype=np.int64)
            for (lo, hi), (idx, _) in zip(ranges, results):
                inside = plan.q_all[(plan.q_cell >= lo) & (plan.q_cell < hi)]
                assert np.isin(idx, inside).all()
                owner[idx] += 1
            assert owner.max() <= 1
            assert np.array_equal(plan.merge(results), full), n_tasks
        # An empty range counts nothing; a range may run twice.
        plan = plan_cores(grid, 5)
        assert len(count_cores(grid, plan, 3, 3)[0]) == 0
        lo, hi = plan.ranges(4)[1]
        first, second = count_cores(grid, plan, lo, hi), count_cores(grid, plan, lo, hi)
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]

    def test_shard_with_known_core_stays_inside_shard(self):
        # Under the known-core carry the plan settles the known points;
        # the ranges count only unknown ones, and their union with the
        # plan's mask is the full pass.
        grid_small = _dataset(8, 500, 2, 4.0)
        known = loops.label_cores(grid_small, 5)
        grid = Grid(grid_small.points, 6.0)
        full = loops.label_cores(grid, 5)
        assert known.any() and not np.array_equal(known, full)
        plan = plan_cores(grid, 5, known_core=known)
        ranges = plan.ranges(3)
        assert len(ranges) == 3
        results = [count_cores(grid, plan, lo, hi) for lo, hi in ranges]
        for idx, _ in results:
            assert not known[idx].any()
        assert np.array_equal(plan.merge(results), full)

    def test_empty_and_singleton_grids(self):
        empty = Grid(np.empty((0, 2)), 1.0)
        assert len(label_cores(empty, 3)) == 0
        single = Grid(np.zeros((1, 2)), 1.0)
        assert np.array_equal(label_cores(single, 1), np.array([True]))
        assert np.array_equal(label_cores(single, 2), np.array([False]))


def _assert_core_funnel(delta, counted):
    """The ``core_*`` funnel of one pass that counted ``counted`` points."""
    assert delta["core_points_total"] == (
        delta.get("core_dense_points", 0)
        + delta.get("core_known_points", 0)
        + delta.get("core_counted_points", 0)
    )
    assert delta.get("core_counted_points", 0) == counted
    assert 0 < delta.get("core_retired_points", 0) <= counted
    assert delta["core_tile_slots"] > 0


def _assert_range_split(grid: Grid, min_pts: int, n_tasks: int) -> None:
    """One plan counted in ``n_tasks`` ranges: each range's tallies keep
    the funnel, and the merged mask and counters match the loop and the
    full pass's funnel."""
    before = counters.snapshot()
    plan = plan_cores(grid, min_pts)
    ranges = plan.ranges(n_tasks)
    assert len(ranges) == n_tasks
    results = []
    for lo, hi in ranges:
        idx, tally = count_cores(grid, plan, lo, hi)
        in_range = int(((plan.q_cell >= lo) & (plan.q_cell < hi)).sum())
        assert 0 < tally["core_retired_points"] <= in_range
        assert tally["core_tile_slots"] > 0
        results.append((idx, tally))
    assert np.array_equal(plan.merge(results), loops.label_cores(grid, min_pts))
    _assert_core_funnel(counters.delta_since(before), len(plan.q_all))


def _mixed_sparse(min_pts: int, seed: int) -> Grid:
    """Sparse cells of 1 and ``min_pts - 1`` points, mixed at random.

    Every cell of a 10 x 10 block of a 2-D grid is occupied, by one point
    or by ``min_pts - 1``, so the neighbour-length classes each hold
    both kinds of cell (the fixture asserts it).
    """
    eps = 2.0
    side = eps / np.sqrt(2)
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(10):
        for j in range(10):
            k = 1 if rng.random() < 0.5 else min_pts - 1
            corner = np.array([i, j]) * side
            blocks.append(corner + rng.uniform(0, side, size=(k, 2)))
    return Grid(np.vstack(blocks), eps)


class TestQuerySizedTiles:
    """Query-sized core classes against the per-cell loop, many tiles each."""

    MIN_PTS = 6

    @pytest.fixture
    def grid(self, monkeypatch):
        # A chunk budget of 16 entries makes every tile one column wide,
        # so each size class runs as many tiles with real retirements.
        monkeypatch.setattr(dm, "_chunk_budget", lambda: 16)
        grid = _mixed_sparse(self.MIN_PTS, 70)
        adj = grid.adjacency()
        nlen = np.array([
            int(grid.sizes[adj.indices[adj.indptr[t]:adj.indptr[t + 1]]].sum())
            for t in range(len(grid))
        ])
        # The fixture's point: one neighbour-length class holds both kinds.
        cls = np.frexp(nlen.astype(float))[1]
        mixed = [set(grid.sizes[cls == c].tolist()) for c in np.unique(cls)]
        assert any({1, self.MIN_PTS - 1} <= sizes for sizes in mixed)
        return grid

    def test_plain(self, grid):
        loop = loops.label_cores(grid, self.MIN_PTS)
        assert loop.any() and not loop.all()
        before = counters.snapshot()
        staged = label_cores(grid, self.MIN_PTS)
        delta = counters.delta_since(before)
        assert np.array_equal(staged, loop)
        assert delta.get("core_dense_points", 0) == 0
        _assert_core_funnel(delta, len(grid.points))

    def test_known_core_carry(self, grid):
        loop = loops.label_cores(grid, self.MIN_PTS)
        known = loop & (np.arange(len(loop)) % 3 == 0)
        before = counters.snapshot()
        carried = label_cores(grid, self.MIN_PTS, known_core=known)
        delta = counters.delta_since(before)
        assert np.array_equal(carried, loop)
        # Only cells holding an unknown point are visited; their known
        # points skip the counting pass.
        visited = [idx for idx in _cells(grid) if not known[idx].all()]
        known_visited = sum(int(known[idx].sum()) for idx in visited)
        assert delta["core_points_total"] == sum(len(idx) for idx in visited)
        assert delta["core_known_points"] == known_visited > 0
        _assert_core_funnel(delta, delta["core_points_total"] - known_visited)

    def test_shards(self, grid):
        _assert_range_split(grid, self.MIN_PTS, 2)


def _cells(grid: Grid):
    """Each cell's point indices, in id order."""
    return np.split(grid.order, grid.cell_start[1:-1])


def _ring_counts(grid: Grid):
    """Per point: ``|B(p, eps)|`` over its own cell + inner ring, and in all.

    Brute force over every pair; a pair counts toward the inner ring
    when its cells are at Chebyshev distance <= 1 — no adjacency rows.
    """
    pts, cells = grid.points, grid.cell_coords[grid.point_cell]
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    within = sq <= grid.eps ** 2
    near = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2) <= 1
    return (within & near).sum(axis=1), within.sum(axis=1)


class TestRingPasses:
    """Two-ring counting against the per-cell loop, many tiles each.

    Uniform points at a density where ``MinPts`` sits between the inner
    ring's and the whole neighbourhood's typical counts: some sparse
    queries settle on the inner ring, others need the outer shell to
    become core, and others scan both rings and stay non-core.
    """

    MIN_PTS = 9

    @pytest.fixture
    def grid(self, monkeypatch):
        # A chunk budget of 16 entries makes every tile one column wide,
        # so each size class of both passes runs as many tiles.
        monkeypatch.setattr(dm, "_chunk_budget", lambda: 16)
        rng = np.random.default_rng(71)
        grid = Grid(rng.uniform(0, 20, size=(300, 2)), 2.0)
        inner, full = _ring_counts(grid)
        sparse = grid.sizes[grid.point_cell] < self.MIN_PTS
        assert (sparse & (inner >= self.MIN_PTS)).any()
        assert (sparse & (inner < self.MIN_PTS) & (full >= self.MIN_PTS)).any()
        assert (sparse & (full < self.MIN_PTS)).any()
        return grid

    def test_plain(self, grid):
        loop = loops.label_cores(grid, self.MIN_PTS)
        before = counters.snapshot()
        staged = label_cores(grid, self.MIN_PTS)
        delta = counters.delta_since(before)
        assert np.array_equal(staged, loop)
        inner, _ = _ring_counts(grid)
        # Every sparse query that reaches MinPts on its inner ring
        # retires there (dense cells never reach the counting pass).
        sparse = grid.sizes[grid.point_cell] < self.MIN_PTS
        assert delta["core_retired_points"] >= int((sparse & (inner >= self.MIN_PTS)).sum())
        _assert_core_funnel(delta, int(sparse.sum()))

    def test_known_core_carry(self, grid):
        loop = loops.label_cores(grid, self.MIN_PTS)
        known = loop & (np.arange(len(loop)) % 2 == 0)
        before = counters.snapshot()
        carried = label_cores(grid, self.MIN_PTS, known_core=known)
        delta = counters.delta_since(before)
        assert np.array_equal(carried, loop)
        assert delta["core_known_points"] > 0
        # Counted: the unknown points of the visited sparse cells.
        counted = sum(
            int((~known[idx]).sum()) for idx in _cells(grid)
            if len(idx) < self.MIN_PTS
        )
        _assert_core_funnel(delta, counted)

    def test_shards(self, grid):
        _assert_range_split(grid, self.MIN_PTS, 3)


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
        assert delta["core_cells_total"] == len(grid)
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

    def test_table_and_tile_slot_counters_by_hand(self):
        # A 1-D grid with eps = side = 1: points 0.9 | 1.2, 1.8 | 2.1 in
        # cells 0, 1, 2.  Offset table {-2..2}, so every cell neighbours
        # both others; the +-1 offsets are the inner ring.
        #   adjacency: 3 cells x 5 offsets = 15 probe lookups; the coarse
        #     buckets (coords // 2) hold 2 and 1 cells, 9 join candidates
        #     >= 0.2 * 15, so the probe runs.  Packed-key span = 2 + 2 * 2
        #     + 1 = 7 <= 3 x 4 non-zero offsets = 12, so the direct table
        #     answers: adjacency_table = 1.  Inner-ring entries: 0 -> 1,
        #     1 -> 0, 1 -> 2, 2 -> 1 = 4 of the 6.
        #   cores, MinPts = 4 (every cell sparse), pass 1 (inner ring):
        #     inner lengths 2, 2, 2 and query counts 1, 2, 1 give two
        #     classes.  Cells 0 and 2: 2 rows x 1 query x 2 neighbours = 4
        #     slots; cell 1: 1 row x 2 queries x 2 neighbours = 4 slots.
        #     Counts: 0.9 -> 3, 1.2 -> 4, 1.8 -> 4, 2.1 -> 3, so cell 1's
        #     two points retire on the inner ring (core_retired_points = 2,
        #     core_retired_cells = 1).
        #   pass 2 (outer shell): 0.9 and 2.1 sit at 3 with one outer
        #     point each, so 3 + 1 >= 4 keeps both open: 2 rows x 1 query
        #     x 1 neighbour = 2 slots (0.9 and 2.1 are 1.2 apart: no
        #     hit).  core_tile_slots = 4 + 4 + 2 = 10.
        pts = np.array([[0.9], [1.2], [1.8], [2.1]])
        grid = Grid(pts, 1.0)
        before = counters.snapshot()
        core = label_cores(grid, 4)
        delta = counters.delta_since(before)
        assert delta["adjacency_probe"] == 1
        assert delta["adjacency_probe_work"] == 15
        assert delta["adjacency_candidates"] == 9
        assert delta["adjacency_table"] == 1
        assert delta["adjacency_entries"] == 6
        assert delta["adjacency_inner_entries"] == 4
        assert delta["core_tile_slots"] == 10
        assert delta["core_retired_points"] == 2
        assert delta["core_retired_cells"] == 1
        assert np.array_equal(core, [False, True, True, False])
        assert np.array_equal(core, loops.label_cores(grid, 4))


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
