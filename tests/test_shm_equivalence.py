"""Differential oracle and lifecycle tests for the shm transport.

The zero-copy shared-memory pipeline (:mod:`repro.parallel.shm`) promises
two things and this suite enforces both:

* **Byte identity** — ``shm=True`` produces the same labels, core mask
  and border memberships as the pickled transport *and* the serial run,
  across dataset shapes, parameters, worker counts, the approximate
  algorithm, and every supervisor recovery rung
  (kill / hang / poison / serial-requeue), including under randomized
  fault schedules.
* **No leaked segments** — the parent owns every ``/dev/shm`` entry and
  unlinks it on success, on every recovery rung, on budget verdicts, on
  ``KeyboardInterrupt``, and under the ``resource_tracker`` (whose shared
  registry a forked worker must never corrupt — the regression test runs
  a whole pipeline in a subprocess and asserts a clean stderr).
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.api import dbscan
from repro.algorithms.approx import approx_dbscan
from repro.config import ConfigError, default_shm
from repro.errors import MemoryBudgetExceeded, ParameterError, WorkerPoolError
from repro.grid.cells import Grid
from repro.parallel import ParallelConfig, leaked_segments, publish_grid, unpublish_grid
from repro.parallel import executor
from repro.parallel import shm as shm_transport
from repro.runtime import memory as memory_mod
from repro.runtime.faultinject import inject_faults
from repro.runtime.memory import MemoryBudget
from repro.runtime.resilient import ResiliencePolicy, run_resilient
from repro.service.queue import RequestKey

EPS = 5.0
MIN_PTS = 4


def dataset(n, d, seed=7, span=100.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, span, size=(n, d))


@pytest.fixture(scope="module")
def points():
    return dataset(400, 2)


@pytest.fixture(scope="module")
def serial(points):
    return dbscan(points, EPS, MIN_PTS, algorithm="grid")


def assert_identical(expected, got, name):
    """Byte-identical labeling: labels, core mask, border memberships."""
    assert np.array_equal(expected.labels, got.labels), f"{name}: labels differ"
    assert np.array_equal(expected.core_mask, got.core_mask), f"{name}: core mask differs"
    for idx in np.flatnonzero(expected.border_mask):
        assert expected.memberships_of(int(idx)) == got.memberships_of(
            int(idx)
        ), f"{name}: border point {idx} has different memberships"


def cfg(workers=2, shm=True, **overrides):
    defaults = dict(workers=workers, min_points=0, shm=shm, shard_timeout=5.0)
    defaults.update(overrides)
    return ParallelConfig(**defaults)


def assert_no_leaks(where):
    assert leaked_segments() == [], f"{where}: leaked /dev/shm segments"


# --------------------------------------------------------------- the oracle


class TestDifferentialOracle:
    """serial == pickled == shm, across the parameter grid."""

    CASES = (
        # (n, dim, eps, min_pts, seed)
        (200, 2, 8.0, 4, 11),
        (400, 3, 14.0, 5, 12),
        (300, 5, 45.0, 3, 13),
        (500, 2, 4.0, 10, 14),
    )

    @pytest.mark.parametrize("n,d,eps,min_pts,seed", CASES)
    @pytest.mark.parametrize("workers", (2, 3))
    def test_exact_grid(self, n, d, eps, min_pts, seed, workers):
        pts = dataset(n, d, seed=seed)
        oracle = dbscan(pts, eps, min_pts, algorithm="grid")
        pickled = dbscan(
            pts, eps, min_pts, algorithm="grid",
            workers=cfg(workers=workers, shm=False),
        )
        shmmed = dbscan(
            pts, eps, min_pts, algorithm="grid", workers=cfg(workers=workers)
        )
        name = f"exact n={n} d={d} workers={workers}"
        assert_identical(oracle, pickled, name + " (pickled)")
        assert_identical(oracle, shmmed, name + " (shm)")
        assert_no_leaks(name)

    @pytest.mark.parametrize("rho", (0.001, 0.1))
    def test_approx(self, points, rho):
        oracle = approx_dbscan(points, EPS, MIN_PTS, rho=rho)
        pickled = approx_dbscan(
            points, EPS, MIN_PTS, rho=rho, workers=cfg(shm=False)
        )
        shmmed = approx_dbscan(points, EPS, MIN_PTS, rho=rho, workers=cfg())
        assert_identical(oracle, pickled, f"approx rho={rho} (pickled)")
        assert_identical(oracle, shmmed, f"approx rho={rho} (shm)")
        assert_no_leaks(f"approx rho={rho}")

    def test_shm_kwarg_on_public_api(self, points, serial):
        """``shm=`` on the public entry points overrides the config."""
        via_kwarg = dbscan(
            points, EPS, MIN_PTS,
            workers=ParallelConfig(workers=2, min_points=0), shm=True,
        )
        assert_identical(serial, via_kwarg, "dbscan(shm=True)")
        assert_no_leaks("dbscan(shm=True)")


# ------------------------------------------------------- segment lifecycle


class TestSegmentLifecycle:
    """Every exit path unlinks the run's segments."""

    def test_no_leak_after_success(self, points, serial):
        result = dbscan(points, EPS, MIN_PTS, workers=cfg())
        assert_identical(serial, result, "success")
        assert_no_leaks("success")

    def test_no_leak_after_worker_kill(self, points, serial):
        with inject_faults(kill_shards=[("cores", 0), ("borders", 0)]) as plan:
            result = dbscan(points, EPS, MIN_PTS, workers=cfg())
            assert plan.worker_faults_fired("kill") >= 1
        assert_identical(serial, result, "worker kill")
        assert result.meta["supervisor"]["respawns"] >= 1
        assert_no_leaks("worker kill")

    def test_no_leak_after_hang_timeout(self, points, serial):
        with inject_faults(hang_shards=[("components", 0)], hang_seconds=30.0):
            result = dbscan(
                points, EPS, MIN_PTS, workers=cfg(shard_timeout=0.5)
            )
        assert_identical(serial, result, "hang")
        assert result.meta["supervisor"]["timeouts"] >= 1
        assert_no_leaks("hang")

    def test_no_leak_after_quarantine(self, points, serial):
        with inject_faults(poison_shards=[("cores", 1)]):
            result = dbscan(
                points, EPS, MIN_PTS, workers=cfg(max_shard_retries=1)
            )
        assert_identical(serial, result, "quarantine")
        assert result.meta["supervisor"]["quarantined"]
        assert_no_leaks("quarantine")

    def test_no_leak_after_pool_exhaustion(self, points):
        broken = cfg(
            shard_timeout=1.0, max_shard_retries=0,
            quarantine=False, max_pool_respawns=0,
        )
        with inject_faults(kill_shards=[("cores", 0)], shard_fault_times=2):
            with pytest.raises(WorkerPoolError):
                dbscan(points, EPS, MIN_PTS, workers=broken)
        assert_no_leaks("pool exhaustion")

    def test_no_leak_after_keyboard_interrupt(self, points, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor, "labels_from_dense", interrupted)
        with pytest.raises(KeyboardInterrupt):
            dbscan(points, EPS, MIN_PTS, workers=cfg())
        assert_no_leaks("KeyboardInterrupt")

    def test_explicit_publication_lifecycle(self, points):
        grid = Grid(points, EPS)
        block = publish_grid(grid)
        assert not block.closed
        assert leaked_segments() != []
        # Republication reuses the cached block (one segment per grid).
        assert publish_grid(grid) is block
        unpublish_grid(grid)
        assert block.closed
        assert_no_leaks("explicit unpublish")
        unpublish_grid(grid)  # idempotent


class TestResourceTracker:
    """Forked attachers must not corrupt the shared tracker registry."""

    def test_clean_stderr_end_to_end(self):
        code = (
            "import numpy as np\n"
            "from repro.api import dbscan\n"
            "from repro.parallel import ParallelConfig, leaked_segments\n"
            "pts = np.random.default_rng(3).uniform(0, 100, size=(300, 2))\n"
            "a = dbscan(pts, 5.0, 4)\n"
            "b = dbscan(pts, 5.0, 4, workers=ParallelConfig(\n"
            "    workers=2, min_points=0, shm=True))\n"
            "assert np.array_equal(a.labels, b.labels)\n"
            "assert leaked_segments() == []\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        for marker in ("Traceback", "resource_tracker", "leaked shared_memory"):
            assert marker not in proc.stderr, (
                f"resource_tracker regression — stderr contains {marker!r}:\n"
                + proc.stderr
            )


# ------------------------------------------------------- randomized stress


class TestRandomizedStress:
    """Seeded random datasets + random fault schedules, shm transport.

    Reproducible by construction (one master seed drives everything); run
    by the CI fault-injection job alongside the deterministic suite.
    """

    PHASES = ("cores", "components", "borders")
    FAULTS = ("kill", "hang", "poison", "none")

    @pytest.mark.parametrize("round_seed", range(5))
    def test_random_faults_byte_identical(self, round_seed):
        rng = np.random.default_rng(20260808 + round_seed)
        n = int(rng.integers(150, 450))
        d = int(rng.choice((2, 3)))
        span = 100.0
        eps = float(rng.uniform(4.0, 12.0)) * (1.0 if d == 2 else 2.0)
        min_pts = int(rng.integers(3, 8))
        pts = dataset(n, d, seed=int(rng.integers(0, 2**31)), span=span)
        oracle = dbscan(pts, eps, min_pts, algorithm="grid")

        fault = str(rng.choice(self.FAULTS))
        phase = str(rng.choice(self.PHASES))
        shard = int(rng.integers(0, 2))
        schedule = {}
        if fault == "kill":
            schedule["kill_shards"] = [(phase, shard)]
        elif fault == "hang":
            schedule["hang_shards"] = [(phase, shard)]
            schedule["hang_seconds"] = 30.0
        elif fault == "poison":
            schedule["poison_shards"] = [(phase, shard)]

        par = cfg(
            workers=2,
            shard_timeout=0.75 if fault == "hang" else 5.0,
            max_shard_retries=1,
        )
        with inject_faults(**schedule):
            result = dbscan(pts, eps, min_pts, algorithm="grid", workers=par)
        name = f"stress[{round_seed}] n={n} d={d} fault={fault}@{phase}/{shard}"
        assert_identical(oracle, result, name)
        sup = result.meta["supervisor"]
        if fault in ("kill", "hang") and result.meta["workers"] > 1:
            assert sup["respawns"] >= 1 or sup["timeouts"] >= 1, (
                f"{name}: supervisor ledger recorded no recovery"
            )
        if fault == "poison" and result.meta["workers"] > 1:
            assert sup["quarantined"] or sup["retries"], (
                f"{name}: poison left no supervisor trace"
            )
        assert_no_leaks(name)


# --------------------------------------------------------- memory budgets


class TestMemoryBudget:
    def test_shared_bytes_counted_once(self, monkeypatch):
        monkeypatch.setattr(memory_mod, "current_rss", lambda: 300e6)
        plain = MemoryBudget(limit_mb=400)
        attached = MemoryBudget(limit_mb=400, shared_bytes=250e6)
        # The worker's poll subtracts the fleet-shared segment bytes: the
        # segment is charged once in the parent, not once per attacher.
        assert plain._effective_rss() == 300e6
        assert attached._effective_rss() == 50e6
        attached.check("poll")  # 50 MB effective under a 400 MB limit
        with pytest.raises(MemoryBudgetExceeded):
            plain.charge_estimate(150e6, "phase")
        attached.charge_estimate(150e6, "phase")  # fits after subtraction

    def test_publish_refused_over_budget(self, points):
        grid = Grid(points, EPS)
        tight = MemoryBudget(limit_mb=1)  # RSS alone already exceeds this
        with pytest.raises(MemoryBudgetExceeded):
            publish_grid(grid, memory=tight)
        # Refused before allocation: nothing to unlink, nothing leaked.
        assert getattr(grid, "_shm_publication", None) is None
        assert_no_leaks("refused publication")

    def test_budget_verdict_propagates_through_run(self, points):
        with pytest.raises(MemoryBudgetExceeded):
            dbscan(
                points, EPS, MIN_PTS, workers=cfg(), memory_budget_mb=1
            )
        assert_no_leaks("budgeted run")

    def test_shm_true_infra_failure_raises_pool_error(self, points, monkeypatch):
        def broken_publish(grid, *, memory=None):
            raise OSError("no shm for you")

        monkeypatch.setattr(shm_transport, "publish_grid", broken_publish)
        with pytest.raises(WorkerPoolError):
            dbscan(points, EPS, MIN_PTS, workers=cfg())

    def test_shm_auto_falls_back_to_pickled(self, points, serial, monkeypatch):
        def broken_publish(grid, *, memory=None):
            raise OSError("no shm for you")

        monkeypatch.setattr(shm_transport, "publish_grid", broken_publish)
        result = dbscan(points, EPS, MIN_PTS, workers=cfg(shm="auto"))
        assert_identical(serial, result, "auto fallback")
        assert_no_leaks("auto fallback")

    def test_run_resilient_degrades_when_publish_fails(self, points, monkeypatch):
        def broken_publish(grid, *, memory=None):
            raise OSError("no shm for you")

        monkeypatch.setattr(shm_transport, "publish_grid", broken_publish)
        policy = ResiliencePolicy(workers=cfg(), rho=0.001)
        result = run_resilient(points, EPS, MIN_PTS, policy)
        res = result.meta["resilience"]
        # The grid tiers (exact, approx) die of WorkerPoolError; the
        # cascade must degrade to the serial sampled tier, not crash.
        assert res["tier"] == "sampled"
        assert res["attempts"][0]["error"] == "WorkerPoolError"
        assert_no_leaks("resilient degrade")


# ------------------------------------------------------------ slab details


class TestBorderSlab:
    def two_chains_with_shared_border(self):
        """Two separated chains plus one point on the border of both."""
        xs_a = np.arange(-5.0, 0.01, 0.5)
        xs_b = np.arange(10.0, 15.01, 0.5)
        chain_a = np.stack([xs_a, np.zeros_like(xs_a)], axis=1)
        chain_b = np.stack([xs_b, np.zeros_like(xs_b)], axis=1)
        middle = np.array([[5.0, 0.0]])
        pts = np.concatenate([chain_a, middle, chain_b])
        return pts, len(chain_a)  # middle's index

    def test_multi_membership_border_point(self):
        pts, mid = self.two_chains_with_shared_border()
        eps, min_pts = 5.5, 6
        oracle = dbscan(pts, eps, min_pts, algorithm="grid")
        assert len(oracle.memberships_of(mid)) == 2  # the scenario holds
        result = dbscan(pts, eps, min_pts, workers=cfg())
        assert_identical(oracle, result, "multi-membership border")
        assert_no_leaks("multi-membership border")

    def test_overflow_row_falls_back_to_pickle(self, monkeypatch):
        # Shrink the fixed-width slab so the 2-cluster border row cannot
        # fit and must travel through the pickled overflow side channel.
        monkeypatch.setattr(executor, "BORDER_SLAB_WIDTH", 1)
        pts, mid = self.two_chains_with_shared_border()
        eps, min_pts = 5.5, 6
        oracle = dbscan(pts, eps, min_pts, algorithm="grid")
        result = dbscan(pts, eps, min_pts, workers=cfg())
        assert_identical(oracle, result, "slab overflow")
        assert len(result.memberships_of(mid)) == 2
        assert_no_leaks("slab overflow")


# ------------------------------------------------------------- config knobs


class TestTransportKnobs:
    def test_normalize_shm_strings(self):
        assert ParallelConfig(workers=2, shm="on").shm is True
        assert ParallelConfig(workers=2, shm="off").shm is False
        assert ParallelConfig(workers=2, shm="auto").shm == "auto"
        assert ParallelConfig(workers=2, shm=None).shm is False
        with pytest.raises(ParameterError):
            ParallelConfig(workers=2, shm="maybe")

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert default_shm() is False
        monkeypatch.setenv("REPRO_SHM", "auto")
        assert default_shm() == "auto"
        monkeypatch.setenv("REPRO_SHM", "on")
        assert default_shm() is True
        monkeypatch.setenv("REPRO_SHM", "sideways")
        with pytest.raises(ConfigError):
            default_shm()

    def test_with_transport(self):
        assert executor.with_transport(None) is None
        base = ParallelConfig(workers=2)
        assert executor.with_transport(base, shm=None) is base
        flipped = executor.with_transport(base, shm=True)
        assert flipped.shm is True and flipped.workers == 2
        assert base.shm is False  # original untouched

    def test_request_key_carries_shm(self):
        a = RequestKey.build("ds", 1.0, 5, shm=True)
        b = RequestKey.build("ds", 1.0, 5, shm=False)
        c = RequestKey.build("ds", 1.0, 5)
        assert a != b and b != c and a != c
        assert len({a, b, c}) == 3  # hashable, distinct coalescing keys
        # Non-primitive values are keyed by repr, like workers.
        d = RequestKey.build("ds", 1.0, 5, shm=ParallelConfig(workers=2))
        assert isinstance(d.shm, str)


# --------------------------------------------------------- engine cache


class TestEngineCachePublication:
    def test_cached_grid_published_once_and_released_on_evict(self, points, serial):
        from repro.engine import ClusteringEngine
        from repro.engine.cache import StructureCache

        engine = ClusteringEngine(points, cache=StructureCache())
        first = engine.dbscan(EPS, MIN_PTS, workers=cfg())
        second = engine.dbscan(EPS, MIN_PTS, workers=cfg())
        assert_identical(serial, first, "engine shm (cold)")
        assert_identical(serial, second, "engine shm (warm)")
        # The cache-held grid keeps its publication alive across runs (no
        # re-pickling, no re-publishing); the cache is the owner of record
        # and unlinks it on eviction/clear.
        pub = engine.grid(EPS)._shm_publication
        assert not pub.closed
        assert pub.name in set(leaked_segments())
        engine.cache.clear()
        assert pub.closed
        assert_no_leaks("engine cache clear")


# ------------------------------------------------------------ attach safety


class TestAttachValidation:
    def test_fingerprint_mismatch_fails_loudly(self, points):
        grid = Grid(points, EPS)
        block = publish_grid(grid)
        try:
            header = dict(block.header)
            header["meta"] = dict(header["meta"], fingerprint="0x0-deadbeef")
            with pytest.raises(ParameterError):
                shm_transport.attach_grid(header)
        finally:
            unpublish_grid(grid)
        assert_no_leaks("fingerprint mismatch")

    def test_attached_grid_matches_and_is_readonly(self, points):
        grid = Grid(points, EPS)
        block = publish_grid(grid)
        try:
            twin = shm_transport.attach_grid(block.header)
            assert twin.points.flags.writeable is False
            assert list(twin.cells.keys()) == list(grid.cells.keys())
            for key in grid.cells:
                assert np.array_equal(twin.cells[key], grid.cells[key])
        finally:
            unpublish_grid(grid)
        assert_no_leaks("attach twin")
