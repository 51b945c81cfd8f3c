"""Fault-injection tests for the supervised parallel executor.

Every test compares the supervised run under injected worker faults
against the serial oracle: recovery is only correct if the output is
*identical* (labels, core mask, border memberships), not merely similar.
Faults are injected via :mod:`repro.runtime.faultinject`, which addresses
shards as ``(phase, shard_seq)`` and coordinates once-only kill/hang
firings across processes, so the retry after recovery succeeds
deterministically.  Core labeling is the only phase that fans out, so
every fault is aimed at ``cores`` shards — a fault aimed at any other
phase would never fire — and each test also checks that the supervisor
ledger recorded it.  The cores fan-out is gated on its plan, so the
:func:`pooled` fixture also fails any fault test whose runs submitted no
shard to a worker pool (it would have tested the serial path).
:class:`TestRandomizedStress` adds seeded random datasets under random
kill / hang / poison schedules.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import dbscan
from repro.errors import MemoryBudgetExceeded, WorkerPoolError
from repro.parallel import ParallelConfig, leaked_segments, supervisor
from repro.runtime import pipeline
from repro.runtime.faultinject import inject_faults
from repro.runtime.resilient import ResiliencePolicy, run_resilient

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


def assert_identical(serial_result, recovered, name):
    """Byte-identical labeling: labels, core mask, and border memberships."""
    assert np.array_equal(serial_result.labels, recovered.labels), f"{name}: labels differ"
    assert np.array_equal(
        serial_result.core_mask, recovered.core_mask
    ), f"{name}: core mask differs"
    for idx in np.flatnonzero(serial_result.border_mask):
        assert serial_result.memberships_of(int(idx)) == recovered.memberships_of(
            int(idx)
        ), f"{name}: border point {idx} has different memberships"


def ledger_names(sup, phase, shard):
    """True when the supervisor ledger retried or quarantined that shard."""
    return any(
        entry["phase"] == phase and entry["shard"] == shard
        for entry in sup["retries"] + sup["quarantined"]
    )


@pytest.fixture
def pooled(monkeypatch):
    """Fail the test unless its runs really submitted shards to a pool.

    Records the supervisor ledger of every pipeline run in the test and
    checks their ``submitted`` counts afterwards.
    """
    ledgers = []

    @contextmanager
    def recording():
        with supervisor.collect_stats() as stats:
            ledgers.append(stats)
            yield stats

    monkeypatch.setattr(pipeline, "collect_stats", recording)
    yield ledgers
    assert ledgers, "no pipeline run in this test"
    assert sum(stats.submitted for stats in ledgers) > 0, (
        "no shard reached a worker pool: the fault test ran serially"
    )


def cfg(**overrides):
    defaults = dict(workers=2, min_points=0, shard_timeout=5.0)
    defaults.update(overrides)
    return ParallelConfig(**defaults)


@pytest.mark.usefixtures("pooled")
class TestWorkerCrashRecovery:
    def test_kill_one_worker_per_phase(self, points, serial):
        # Cores is the one fan-out phase: kill a worker on two of its shards.
        with inject_faults(kill_shards=[("cores", 0), ("cores", 2)]) as plan:
            recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
            assert plan.worker_faults_fired("kill") == 2
        assert_identical(serial, recovered, "kill-per-phase")
        sup = recovered.meta["supervisor"]
        assert sup["respawns"] >= 1
        assert ledger_names(sup, "cores", 0) and ledger_names(sup, "cores", 2)

    def test_fault_free_run_records_zero_events(self, points, serial):
        recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
        assert_identical(serial, recovered, "fault-free")
        sup = recovered.meta["supervisor"]
        assert sup == {
            "retries": [],
            "quarantined": [],
            "respawns": 0,
            "timeouts": 0,
            "serial_requeued": 0,
        }


@pytest.mark.usefixtures("pooled")
class TestHangDetection:
    def test_hung_shard_times_out_and_retry_succeeds(self, points, serial):
        with inject_faults(hang_shards=[("cores", 0)], hang_seconds=30.0) as plan:
            recovered = dbscan(
                points, EPS, MIN_PTS, algorithm="grid", workers=cfg(shard_timeout=0.5)
            )
            assert plan.worker_faults_fired("hang") == 1
        assert_identical(serial, recovered, "hang")
        sup = recovered.meta["supervisor"]
        assert sup["timeouts"] >= 1
        assert sup["respawns"] >= 1
        assert any(
            r["phase"] == "cores" and r["shard"] == 0 and r["reason"] == "timeout"
            for r in sup["retries"]
        )


@pytest.mark.usefixtures("pooled")
class TestQuarantine:
    def test_poison_shard_is_quarantined(self, points, serial):
        # Poison fires on *every* worker attempt but computes fine in the
        # parent: retries must exhaust, then quarantine must run it serially.
        with inject_faults(poison_shards=[("cores", 1)]):
            recovered = dbscan(
                points, EPS, MIN_PTS, algorithm="grid",
                workers=cfg(max_shard_retries=1),
            )
        assert_identical(serial, recovered, "poison")
        quarantined = recovered.meta["supervisor"]["quarantined"]
        assert any(q["phase"] == "cores" and q["shard"] == 1 for q in quarantined)

    def test_serial_requeue_after_respawn_budget(self, points, serial):
        # Retry budget left but respawn budget spent: the remaining shards
        # must drain through the parent-side serial-requeue rung.
        with inject_faults(kill_shards=[("cores", 0)], shard_fault_times=1):
            recovered = dbscan(
                points, EPS, MIN_PTS, algorithm="grid",
                workers=cfg(shard_timeout=1.0, max_shard_retries=2,
                            max_pool_respawns=0),
            )
        assert_identical(serial, recovered, "serial-requeue")
        assert recovered.meta["supervisor"]["serial_requeued"] >= 1


@pytest.mark.usefixtures("pooled")
class TestBudgetExhaustion:
    def test_exhausted_budgets_raise_worker_pool_error(self, points):
        broken = cfg(
            shard_timeout=1.0, max_shard_retries=0,
            quarantine=False, max_pool_respawns=0,
        )
        with inject_faults(kill_shards=[("cores", 0)], shard_fault_times=2):
            with pytest.raises(WorkerPoolError) as ei:
                dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=broken)
        # The error carries the supervisor's ledger for post-mortems.
        assert ei.value.stats is not None

    def test_resilient_degrades_instead_of_raising(self, points):
        broken = cfg(
            shard_timeout=1.0, max_shard_retries=0,
            quarantine=False, max_pool_respawns=0,
        )
        policy = ResiliencePolicy(workers=broken, tiers=("exact", "approx"), rho=0.001)
        # One firing: the exact tier consumes it and fails; approx runs clean.
        with inject_faults(kill_shards=[("cores", 0)], shard_fault_times=1):
            result = run_resilient(points, EPS, MIN_PTS, policy)
        res = result.meta["resilience"]
        assert res["tier"] == "approx"
        assert res["attempts"][0]["error"] == "WorkerPoolError"
        assert "supervisor" in res["attempts"][0]
        # The winning tier's own (clean) supervisor ledger is folded in too.
        assert "supervisor" in res


class TestMemoryBudget:
    def test_budget_verdict_propagates_through_run(self, points):
        with pytest.raises(MemoryBudgetExceeded):
            dbscan(points, EPS, MIN_PTS, workers=cfg(), memory_budget_mb=1)


@pytest.mark.usefixtures("pooled")
class TestRandomizedStress:
    """Seeded random datasets + random fault schedules.

    Reproducible by construction (one master seed drives everything); run
    by the CI fault-injection job alongside the deterministic suite.
    """

    PHASES = ("cores",)
    FAULTS = ("kill", "hang", "poison", "none")

    @pytest.mark.parametrize("round_seed", range(5))
    def test_random_faults_byte_identical(self, round_seed):
        rng = np.random.default_rng(20260808 + round_seed)
        n = int(rng.integers(150, 450))
        d = int(rng.choice((2, 3)))
        eps = float(rng.uniform(4.0, 12.0)) * (1.0 if d == 2 else 2.0)
        min_pts = int(rng.integers(3, 8))
        pts = dataset(n, d, seed=int(rng.integers(0, 2**31)))
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
            shard_timeout=0.75 if fault == "hang" else 5.0,
            max_shard_retries=1,
        )
        name = f"stress[{round_seed}] n={n} d={d} fault={fault}@{phase}/{shard}"
        with inject_faults(**schedule) as plan:
            result = dbscan(pts, eps, min_pts, algorithm="grid", workers=par)
            if fault in ("kill", "hang"):
                assert plan.worker_faults_fired(fault) == 1, f"{name}: fault never fired"
        assert_identical(oracle, result, name)
        assert result.meta["workers"] == 2, f"{name}: the pool never ran"
        sup = result.meta["supervisor"]
        if fault in ("kill", "hang"):
            assert sup["respawns"] >= 1 or sup["timeouts"] >= 1, (
                f"{name}: supervisor ledger recorded no recovery"
            )
        if fault != "none":
            assert ledger_names(sup, phase, shard), (
                f"{name}: supervisor ledger does not name the faulted shard"
            )
        assert leaked_segments() == [], f"{name}: leaked /dev/shm segments"
