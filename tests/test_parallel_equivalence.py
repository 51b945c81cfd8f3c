"""Differential oracle for the parallel pipeline.

The parallel executor promises *identical* output to the serial run — not
merely permutation-equivalent clusters but the very same label array (the
cores fan-out merges disjoint flag writes into the same mask the serial
pass computes, and every later phase runs the serial code).  This suite
holds it to that promise on randomized seed-spreader data (d in {2, 3, 5}),
2-D shape datasets, several eps values including near-collapse radii, and
worker counts {1, 2, 4} — and cross-checks everything against the O(n^2)
brute-force oracle, border-point tie-breaking included.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.approx import approx_dbscan
from repro.algorithms.brute import brute_dbscan
from repro.api import dbscan
from repro.data.seed_spreader import seed_spreader
from repro.data.shapes import rings, two_moons
from repro.core.labeling import count_cores, label_cores, plan_cores
from repro.engine import ClusteringEngine, StructureCache
from repro.errors import MemoryBudgetExceeded, ParameterError, TimeoutExceeded
from repro.grid.cells import Grid
from repro.parallel import OVERSHARD, ParallelConfig, leaked_segments
from repro.parallel import executor as executor_mod
from repro.parallel.executor import (
    as_parallel_config,
    effective_workers,
    parallel_label_cores,
)
from repro.runtime.deadline import Deadline
from repro.runtime.faultinject import inject_faults

#: Force the fan-out even on tiny inputs — the whole point is to exercise it.
def forced(workers: int) -> ParallelConfig:
    return ParallelConfig(workers=workers, min_points=0)


#: name -> (points, eps values to test).  Seed-spreader datasets use the
#: paper's generator (vicinity radius 100 on [0, 1e5]^d); the largest eps
#: per dataset is near the collapsing regime where clusters merge.
def _datasets():
    out = {}
    for d, seed in ((2, 31), (3, 32), (5, 33)):
        ds = seed_spreader(400, d, seed=seed)
        out[f"ss{d}d"] = (ds.points, (150.0, 2000.0, 25000.0))
    moons, _ = two_moons(300, noise=0.06, seed=34)
    out["moons"] = (moons, (0.12, 0.3))
    ring_pts, _ = rings(300, noise=0.05, seed=35)
    out["rings"] = (ring_pts, (0.15, 0.5))
    return out


DATASETS = _datasets()
CASES = [(name, eps) for name, (_, epss) in DATASETS.items() for eps in epss]


def _ids(case):
    name, eps = case
    return f"{name}-eps{eps:g}"


def assert_identical(serial, parallel, name):
    """Byte-identical labeling: labels, core mask, and memberships."""
    assert np.array_equal(serial.labels, parallel.labels), f"{name}: labels differ"
    assert np.array_equal(serial.core_mask, parallel.core_mask), f"{name}: core mask differs"
    border = np.flatnonzero(serial.border_mask)
    for idx in border:
        assert serial.memberships_of(int(idx)) == parallel.memberships_of(int(idx)), (
            f"{name}: border point {idx} has different memberships "
            "(tie-breaking across clusters drifted)"
        )


class TestExactDifferentialOracle:
    @pytest.mark.parametrize("case", CASES, ids=_ids)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_and_brute(self, case, workers):
        name, eps = case
        pts, _ = DATASETS[name]
        min_pts = 10
        serial = dbscan(pts, eps, min_pts, workers=1)
        par = dbscan(pts, eps, min_pts, workers=forced(workers))
        # meta["workers"] is the threads the plan's ranges ran on: 1 when
        # the plan left nothing to count (every cell dense or rejected).
        plan = plan_cores(Grid(pts, eps), min_pts)
        n_ranges = len(plan.ranges(workers * OVERSHARD))
        assert par.meta["workers"] == max(1, min(workers, n_ranges))
        assert_identical(serial, par, f"{name} w={workers}")
        reference = brute_dbscan(pts, eps, min_pts)
        assert par.same_clusters(reference), (
            f"{name} w={workers}: parallel grid disagrees with brute force"
        )
        assert np.array_equal(par.core_mask, reference.core_mask)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_gunawan2d_parallel(self, workers):
        pts, _ = DATASETS["moons"]
        serial = dbscan(pts, 0.12, 10, algorithm="gunawan2d", workers=1)
        par = dbscan(pts, 0.12, 10, algorithm="gunawan2d", workers=forced(workers))
        assert_identical(serial, par, f"gunawan2d w={workers}")

    def test_border_tie_breaking(self):
        # A point exactly within eps of core points of *two* clusters: its
        # primary label and its multi-membership tuple must survive
        # parallelisation bit-for-bit.
        left = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1], [0.05, 0.05], [0.2, 0.0]]
        )
        right = np.array([2.4, 0.0]) - left  # mirrored blob, tips 2.0 apart
        bridge = np.array([[1.2, 0.0]])  # exactly eps from one core of each blob
        pts = np.vstack([left, right, bridge])
        serial = dbscan(pts, 1.0, 6, workers=1)
        par = dbscan(pts, 1.0, 6, workers=forced(2))
        assert serial.n_clusters == 2
        bridge_idx = len(pts) - 1
        assert not serial.core_mask[bridge_idx]
        assert len(serial.memberships_of(bridge_idx)) == 2
        assert_identical(serial, par, "bridge")

    def test_multi_membership_border_point(self):
        # Two separated chains with one point on the border of both: the
        # worker-computed border row carries two cluster ids.
        xs_a = np.arange(-5.0, 0.01, 0.5)
        xs_b = np.arange(10.0, 15.01, 0.5)
        chain_a = np.stack([xs_a, np.zeros_like(xs_a)], axis=1)
        chain_b = np.stack([xs_b, np.zeros_like(xs_b)], axis=1)
        pts = np.concatenate([chain_a, [[5.0, 0.0]], chain_b])
        mid = len(chain_a)
        oracle = dbscan(pts, 5.5, 6, algorithm="grid")
        assert len(oracle.memberships_of(mid)) == 2  # the scenario holds
        result = dbscan(pts, 5.5, 6, workers=forced(2))
        assert_identical(oracle, result, "multi-membership border")


class TestApproxDifferentialOracle:
    @pytest.mark.parametrize("case", CASES[:6], ids=_ids)
    @pytest.mark.parametrize("rho", [0.001, 0.1])
    def test_parallel_matches_serial(self, case, rho):
        name, eps = case
        pts, _ = DATASETS[name]
        serial = approx_dbscan(pts, eps, 10, rho=rho, workers=1)
        for workers in (2, 4):
            par = approx_dbscan(pts, eps, 10, rho=rho, workers=forced(workers))
            assert_identical(serial, par, f"approx {name} rho={rho} w={workers}")


class TestConcurrentRuns:
    """Parallel runs issued concurrently from several threads.

    The service's shape: its executor threads each drive their own
    ``workers=2`` run at the same time, so any per-run state kept in a
    module global (rather than in the run's own plan and pool) shows up
    here as crashes or cross-talk between the runs.  Every run's range
    threads are joined before it returns, so the thread count is back at
    its baseline afterwards.
    """

    THREADS = 4
    RUNS_PER_THREAD = 6

    def test_concurrent_pooled_runs_match_serial(self):
        points = seed_spreader(20_000, 3, noise_fraction=0.05, seed=41).points
        eps, min_pts = 200.0, 20
        serial = dbscan(points, eps, min_pts, workers=1)
        cfg = ParallelConfig(workers=2, min_points=0)
        baseline = threading.active_count()

        def run(_):
            return dbscan(points, eps, min_pts, workers=cfg)

        n_runs = self.THREADS * self.RUNS_PER_THREAD
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # switch threads often to expose races
        try:
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                results = list(pool.map(run, range(n_runs), timeout=600))
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == baseline
        assert len(results) == n_runs
        for i, got in enumerate(results):
            name = f"concurrent run {i}"
            assert got.meta["workers"] == 2, f"{name}: fell back to serial"
            assert np.array_equal(got.labels, serial.labels), f"{name}: labels differ"
            assert np.array_equal(got.core_mask, serial.core_mask), (
                f"{name}: core mask differs"
            )
            for field in ("overflow_points", "overflow_indptr", "overflow_clusters"):
                assert np.array_equal(getattr(got, field), getattr(serial, field)), (
                    f"{name}: {field} differs"
                )
        assert leaked_segments() == []


class TestSerialFallback:
    def test_small_input_falls_back(self, monkeypatch):
        # Assert the library default, not whatever the environment sets.
        monkeypatch.delenv("REPRO_PARALLEL_MIN_POINTS", raising=False)
        pts, (eps, *_rest) = DATASETS["ss3d"]
        # The default gate (150,000 open queries) exceeds n=400: no pool.
        result = dbscan(pts, eps, 10, workers=4)
        assert result.meta["workers"] == 1
        assert np.array_equal(result.labels, dbscan(pts, eps, 10, workers=1).labels)

    def test_effective_workers(self):
        # (cfg, open counting queries of the plan, ranges holding them)
        cfg = ParallelConfig(workers=4, min_points=100)
        assert effective_workers(None, 10**6, 10**5) == 1
        assert effective_workers(cfg, 50, 40) == 1       # below min_points
        assert effective_workers(cfg, 500, 2) == 2       # fewer ranges than workers
        assert effective_workers(cfg, 500, 1) == 1       # one range: nothing to split
        assert effective_workers(cfg, 500, 40) == 4
        # min_points=0 fans out any plan with work, and only such a plan.
        assert effective_workers(forced(2), 1, 8) == 2
        assert effective_workers(forced(2), 0, 0) == 1

    def test_as_parallel_config(self):
        assert as_parallel_config(1) is None
        assert as_parallel_config(ParallelConfig(workers=1)) is None
        assert as_parallel_config(3).workers == 3
        cfg = ParallelConfig(workers=2, min_points=7)
        assert as_parallel_config(cfg) is cfg
        with pytest.raises(ParameterError):
            as_parallel_config(0)
        with pytest.raises(ParameterError):
            ParallelConfig(workers=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert as_parallel_config(None).workers == 2
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert as_parallel_config(None) is None

    def test_unsupported_algorithm_guard(self, monkeypatch):
        pts, (eps, *_rest) = DATASETS["ss2d"]
        with pytest.raises(ParameterError):
            dbscan(pts, eps, 10, algorithm="brute", workers=2)
        # The env default must NOT poison non-grid algorithms.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = dbscan(pts[:80], eps, 10, algorithm="brute")
        assert result.n >= 0  # ran without raising


def _planned_slots(plan):
    """Per live cell: open queries x neighbour points (the range weights)."""
    open_per_cell = np.bincount(plan.q_cell[plan.open_q], minlength=len(plan.live_ids))
    return open_per_cell * (plan.inner_len + plan.outer_len)


class TestShardHelpers:
    """``CorePlan.ranges``: the live-cell ranges the cores fan-out submits."""

    def test_shards_partition_cells(self):
        pts = np.random.default_rng(65).uniform(0.0, 100.0, size=(2000, 2))
        plan = plan_cores(Grid(pts, 3.0), 8)
        slots = _planned_slots(plan)
        assert (slots > 0).sum() >= 100
        ranges = plan.ranges(4)
        assert len(ranges) == 4
        # Ascending, disjoint, non-empty; every cell with work is covered.
        bounds = [b for r in ranges for b in r]
        assert bounds == sorted(bounds) and all(lo < hi for lo, hi in ranges)
        covered = np.zeros(len(slots), dtype=bool)
        for lo, hi in ranges:
            covered[lo:hi] = True
            # Balanced by planned slots: a range overshoots its share by
            # at most the one cell that crosses the cut.
            assert slots[lo:hi].sum() <= slots.sum() / 4 + slots.max()
        assert covered[slots > 0].all()

    def test_more_shards_than_cells(self):
        # Two sparse live cells (two points and one): at most two ranges.
        pts = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 0.9]])
        plan = plan_cores(Grid(pts, 1.0), 3)
        assert len(plan.open_q) == 3 and (_planned_slots(plan) > 0).sum() == 2
        ranges = plan.ranges(8)
        assert len(ranges) == 2
        assert ranges[0][0] == 0 and ranges[-1][1] == len(plan.live_ids)
        # A plan with nothing left to count has no ranges at all.
        assert plan_cores(Grid(pts, 1.0), 1).ranges(8) == []


class TestWorkerGuards:
    def test_worker_deadline_trips(self):
        # One range of the plan polls the deadline per tile, as the
        # serial count does.
        pts = np.random.default_rng(0).normal(0, 2, size=(300, 2))
        grid = Grid(pts, 1.0)
        plan = plan_cores(grid, 5)
        assert len(plan.open_q) > 0
        with pytest.raises(TimeoutExceeded):
            count_cores(grid, plan, 0, len(plan.live_ids), deadline=Deadline(1e-9))

    def test_pool_propagates_timeout(self):
        pts = np.random.default_rng(1).normal(0, 3, size=(500, 3))
        from repro.algorithms.exact_grid import exact_grid_dbscan

        with pytest.raises(TimeoutExceeded):
            exact_grid_dbscan(
                pts, 1.0, 6, deadline=Deadline(1e-9), workers=forced(2)
            )

    def test_budget_verdict_propagates_through_run(self):
        pts = np.random.default_rng(7).uniform(0.0, 100.0, size=(400, 2))
        with pytest.raises(MemoryBudgetExceeded):
            dbscan(pts, 5.0, 4, workers=forced(2), memory_budget_mb=1)


class TestThreadSafety:
    """The cores fan-out's threads share one grid and one plan.

    Every range reads them only; the lazy adjacency build happens before
    the first thread starts, and no thread outlives the call, whether it
    returns or raises.
    """

    @staticmethod
    def _points():
        return np.random.default_rng(66).uniform(0.0, 400.0, size=(6000, 3))

    def test_cold_grid_matches_serial(self):
        pts = self._points()
        baseline = threading.active_count()
        grid = Grid(pts, 25.0)
        assert grid._adjacency is None  # never warmed
        mask, n_threads = executor_mod.label_cores_on_threads(grid, 10, forced(2))
        assert n_threads == 2
        assert np.array_equal(mask, label_cores(Grid(pts, 25.0), 10))
        assert threading.active_count() == baseline

    def test_timeout_in_a_range_propagates(self, monkeypatch):
        pts = self._points()
        grid = Grid(pts, 25.0)
        grid.adjacency()
        raised = []
        real = executor_mod.count_cores

        def spy(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except TimeoutExceeded:
                raised.append(threading.current_thread().name)
                raise

        monkeypatch.setattr(executor_mod, "count_cores", spy)
        baseline = threading.active_count()
        deadline = Deadline(60.0)
        # Read 1 is the plan's own check; every later read, the first
        # tile poll of a range included, sees the clock an hour ahead.
        with inject_faults(clock_skew=3600.0, skew_after=1):
            with pytest.raises(TimeoutExceeded):
                parallel_label_cores(grid, 10, forced(2), deadline=deadline)
        assert raised and all(name.startswith("repro-cores") for name in raised)
        assert threading.active_count() == baseline


class TestKernelCountersUnderWorkers:
    """``meta["kernel_counters"]`` of a ``workers>1`` run.

    Connectivity and border assignment run serially, so their
    ``edge_*`` / ``border_*`` counters must equal the serial run's and keep
    the funnel identities.  The core plan runs in the calling thread too,
    and each threaded range returns its count counters, which the calling
    thread publishes once per range.
    """

    #: The counters the core plan publishes.
    PLAN_KEYS = (
        "core_cells_total", "core_points_total", "core_dense_cells",
        "core_dense_points", "core_sparse_cells", "core_known_points",
        "core_counted_points", "core_upperbound_reject_points",
    )

    @staticmethod
    def _core(result):
        counters = result.meta.get("kernel_counters", {})
        return {k: v for k, v in counters.items() if k.startswith("core_")}

    @staticmethod
    def _range_tallies(pts, eps, min_pts, workers):
        """The count counters of the plan's ranges, counted in-process."""
        grid = Grid(pts, eps)
        plan = plan_cores(grid, min_pts)
        total = {}
        for lo, hi in plan.ranges(workers * OVERSHARD):
            for name, value in count_cores(grid, plan, lo, hi)[1].items():
                total[name] = total.get(name, 0) + value
        return total

    def test_core_counters_match_serial(self):
        pts = np.random.default_rng(60).uniform(0.0, 400.0, size=(6000, 3))
        serial = self._core(dbscan(pts, 25.0, 10, algorithm="grid", workers=1))
        result = dbscan(
            pts, 25.0, 10, algorithm="grid",
            workers=ParallelConfig(workers=2, min_points=1),
        )
        assert result.meta["workers"] == 2
        pooled = self._core(result)
        for key in self.PLAN_KEYS:
            assert pooled.get(key, 0) == serial.get(key, 0), key
        assert pooled["core_points_total"] == len(pts) == (
            pooled.get("core_dense_points", 0)
            + pooled.get("core_known_points", 0)
            + pooled.get("core_counted_points", 0)
        )
        assert 0 < pooled["core_retired_points"] <= pooled["core_counted_points"]
        # Tiles form per range, so the count counters are the ranges' sum.
        tallies = self._range_tallies(pts, 25.0, 10, 2)
        for key, value in tallies.items():
            assert pooled.get(key, 0) == value, key

    def test_edge_and_border_counters_match_serial(self):
        pts = np.random.default_rng(60).uniform(0.0, 400.0, size=(6000, 3))
        serial = dbscan(pts, 25.0, 10, algorithm="grid", workers=1)
        pooled = dbscan(
            pts, 25.0, 10, algorithm="grid",
            workers=ParallelConfig(workers=2, min_points=1),
        )
        assert pooled.meta["workers"] == 2
        assert np.array_equal(serial.labels, pooled.labels)

        def funnel(result):
            counters = result.meta.get("kernel_counters", {})
            return {
                k: v for k, v in counters.items()
                if k.startswith(("edge_", "border_"))
            }

        got = funnel(pooled)
        assert got == funnel(serial)
        assert got["edge_pairs_total"] > 0 and got.get("edge_survivors", 0) > 0
        assert got["edge_pairs_total"] == (
            got.get("edge_quick_accept", 0)
            + got.get("edge_quick_reject", 0)
            + got.get("edge_survivors", 0)
            + got.get("edge_connected_skip", 0)
        )
        assert got.get("edge_survivors", 0) == (
            got.get("edge_scheduled_skip", 0) + got.get("edge_predicate_tests", 0)
        )
        assert got["border_points_total"] == int((~pooled.core_mask).sum())
        assert got["border_points_total"] == (
            got.get("border_assigned", 0) + got.get("border_noise", 0)
        )


class TestPlanGate:
    """The cores fan-out runs only when its plan leaves enough to count.

    The gate is ``ParallelConfig.min_points`` against the plan's open
    counting queries; under it the count runs in the calling thread and
    no pool starts.  ``min_points=0`` fans out every plan that has work.
    """

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import concurrent.futures

        def refuse(*_args, **_kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)

    @staticmethod
    def _same(serial, other, name):
        assert_identical(serial, other, name)
        for field in ("overflow_points", "overflow_indptr", "overflow_clusters"):
            assert np.array_equal(getattr(serial, field), getattr(other, field)), (
                f"{name}: {field} differs"
            )

    def test_plan_below_min_points_builds_no_pool(self, no_pool):
        pts = np.random.default_rng(61).uniform(0.0, 400.0, size=(6000, 3))
        plan = plan_cores(Grid(pts, 25.0), 10)
        assert len(plan.open_q) > 0 and len(plan.ranges(8)) > 1
        serial = dbscan(pts, 25.0, 10, workers=1)
        gated = dbscan(
            pts, 25.0, 10, workers=ParallelConfig(workers=2, min_points=len(plan.open_q) + 1)
        )
        assert gated.meta["workers"] == 1
        self._same(serial, gated, "gated")
        # The calling thread ran the serial count: every counter matches.
        assert gated.meta["kernel_counters"] == serial.meta["kernel_counters"]

    def test_plan_at_min_points_fans_out(self):
        pts = np.random.default_rng(61).uniform(0.0, 400.0, size=(6000, 3))
        plan = plan_cores(Grid(pts, 25.0), 10)
        pooled = dbscan(
            pts, 25.0, 10, workers=ParallelConfig(workers=2, min_points=len(plan.open_q))
        )
        assert pooled.meta["workers"] == 2
        self._same(dbscan(pts, 25.0, 10, workers=1), pooled, "at the gate")

    def test_small_sweep_forks_no_pool(self, no_pool, monkeypatch):
        # An ss5d-like sweep under the library default: no step's plan
        # reaches the gate, so workers=2 runs exactly the serial sweep.
        monkeypatch.delenv("REPRO_PARALLEL_MIN_POINTS", raising=False)
        pts = seed_spreader(5000, 5, noise_fraction=0.05, seed=43).points
        eps_list = [1000.0, 1500.0, 2000.0, 3000.0, 4000.0]
        serial = ClusteringEngine(pts, cache=StructureCache(), workers=1).sweep(eps_list, 10)
        pooled = ClusteringEngine(pts, cache=StructureCache(), workers=2).sweep(eps_list, 10)
        for eps, a, b in zip(eps_list, serial, pooled):
            assert b.meta["workers"] == 1
            self._same(a, b, f"sweep eps={eps:g}")

    @staticmethod
    def _adversarial():
        rng = np.random.default_rng(63)
        # Duplicates: every location repeated 3 times, MinPts above that.
        dup = np.repeat(rng.uniform(0.0, 60.0, size=(300, 2)), 3, axis=0)
        # Exact-eps ties: a unit lattice at eps=1, so every neighbour sits
        # at exactly eps; interior points are core only if ties count.
        lattice = np.stack(np.meshgrid(np.arange(30.0), np.arange(30.0)), -1).reshape(-1, 2)
        seven = rng.uniform(0.0, 100.0, size=(1500, 7))
        return [
            ("duplicates", dup, 3.0, 5),
            ("minpts-1", dup, 3.0, 1),
            ("minpts-2", rng.uniform(0.0, 100.0, size=(800, 2)), 2.0, 2),
            ("lattice-ties", lattice, 1.0, 5),
            ("d=7", seven, 40.0, 6),
        ]

    def test_forced_fan_out_adversarial(self):
        for name, pts, eps, min_pts in self._adversarial():
            serial = dbscan(pts, eps, min_pts, workers=1)
            pooled = dbscan(pts, eps, min_pts, workers=forced(2))
            plan = plan_cores(Grid(pts, eps), min_pts)
            # Forced means: a pool for every plan with two ranges of work.
            expect = 2 if len(plan.ranges(2 * OVERSHARD)) > 1 else 1
            assert pooled.meta["workers"] == expect, name
            self._same(serial, pooled, name)
        assert leaked_segments() == []

    def test_forced_fan_out_known_core_carry(self):
        pts = np.random.default_rng(64).uniform(0.0, 200.0, size=(6000, 3))
        known = label_cores(Grid(pts, 12.0), 10)
        grid = Grid(pts, 16.0)
        plan = plan_cores(grid, 10, known_core=known)
        assert known.any() and len(plan.ranges(2 * OVERSHARD)) > 1
        full = label_cores(Grid(pts, 16.0), 10)
        assert not np.array_equal(known, full)
        assert np.array_equal(parallel_label_cores(grid, 10, forced(2), known_core=known), full)
