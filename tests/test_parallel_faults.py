"""Fault-injection tests for the supervised parallel executor.

Every test compares the supervised run under injected worker faults
against the serial oracle: recovery is only correct if the output is
*identical* (labels, core mask, border memberships), not merely similar.
Faults are injected via :mod:`repro.runtime.faultinject`, which addresses
ranges as ``(phase, shard_seq)`` and coordinates once-only kill/hang
firings across processes.  Every fault ends the same way: the workers
are torn down and the parent counts every unfinished range, so each test
also checks that the supervisor ledger names the faulted range and its
reason.  Core labeling is the only phase that fans out, so every fault
is aimed at ``cores`` ranges — a fault aimed at any other phase would
never fire.  The cores fan-out is gated on its plan, so the
:func:`pooled` fixture also fails any fault test whose runs submitted no
range to a worker (it would have tested the serial path).
:class:`TestRandomizedStress` adds seeded random datasets under random
kill / hang / poison schedules, :class:`TestBoundedTeardown` a worker
that ignores SIGTERM while it hangs, and :class:`TestWorkerStartFailure`
a worker that cannot start.
"""

import errno
import json
import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import dbscan
from repro.errors import MemoryBudgetExceeded
from repro.parallel import ParallelConfig, leaked_segments, supervisor
from repro.runtime import pipeline
from repro.runtime.faultinject import inject_faults

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


def ledger_names(sup, phase, shard, reason=None):
    """True when the supervisor ledger re-ran that range (for ``reason``)."""
    return any(
        entry["phase"] == phase and entry["shard"] == shard
        and reason in (None, entry["reason"])
        for entry in sup["retries"]
    )


@pytest.fixture
def ledgers(monkeypatch):
    """The supervisor ledger of every pipeline run in the test, in order."""
    ledgers = []

    @contextmanager
    def recording():
        with supervisor.collect_stats() as stats:
            ledgers.append(stats)
            yield stats

    monkeypatch.setattr(pipeline, "collect_stats", recording)
    return ledgers


@pytest.fixture
def pooled(ledgers):
    """Fail the test unless its runs really submitted shards to a pool."""
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
        # Cores is the one fan-out phase: kill a worker on two of its
        # ranges.  The first death ends the fan-out, so range 2 may never
        # reach a worker: it runs in the parent, where kills do not fire.
        with inject_faults(kill_shards=[("cores", 0), ("cores", 2)]) as plan:
            recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
            assert plan.worker_faults_fired("kill") >= 1
        assert_identical(serial, recovered, "kill-per-phase")
        sup = recovered.meta["supervisor"]
        assert any(r["reason"] == "worker-death" for r in sup["retries"])
        assert ledger_names(sup, "cores", 0) and ledger_names(sup, "cores", 2)

    def test_fault_free_run_records_zero_events(self, points, serial):
        recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
        assert_identical(serial, recovered, "fault-free")
        sup = recovered.meta["supervisor"]
        assert sup == {"retries": [], "timeouts": 0}


@pytest.mark.usefixtures("pooled")
class TestHangDetection:
    def test_hung_shard_times_out_and_retry_succeeds(self, points, serial):
        # The hung range times out; the teardown kills its worker and the
        # parent counts it (and every other unfinished range).
        with inject_faults(hang_shards=[("cores", 0)], hang_seconds=30.0) as plan:
            t0 = time.monotonic()
            recovered = dbscan(
                points, EPS, MIN_PTS, algorithm="grid", workers=cfg(shard_timeout=0.5)
            )
            assert time.monotonic() - t0 < 15.0, "the run waited out the hang"
            assert plan.worker_faults_fired("hang") == 1
        assert_identical(serial, recovered, "hang")
        sup = recovered.meta["supervisor"]
        assert sup["timeouts"] >= 1
        assert ledger_names(sup, "cores", 0, "timeout")


@pytest.mark.usefixtures("pooled")
class TestQuarantine:
    def test_poison_shard_is_quarantined(self, points, serial):
        # Poison fires on *every* worker attempt but computes fine in the
        # parent: the worker error ends the fan-out, and the parent counts
        # the poisoned range with the others left unfinished.
        with inject_faults(poison_shards=[("cores", 1)]):
            recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
        assert_identical(serial, recovered, "poison")
        assert ledger_names(recovered.meta["supervisor"], "cores", 1, "error")


class TestWorkerStartFailure:
    """A worker that cannot start is a fault: the parent counts every range.

    ``Process.start`` (or ``Pipe``) raising ``OSError`` — EAGAIN when the
    box is out of process ids, EMFILE out of descriptors — must neither
    escape the run nor leave a started worker behind.
    """

    @pytest.fixture
    def ctx(self):
        return multiprocessing.get_context(supervisor._START_METHOD)

    def assert_counted_in_parent(self, serial, recovered, ledgers):
        assert_identical(serial, recovered, "worker-start")
        (stats,) = ledgers
        assert stats.submitted == 0 and stats.pool_workers == 0
        seqs = [r["shard"] for r in stats.retries]
        assert len(seqs) >= 2 and seqs == list(range(len(seqs)))
        assert {r["reason"] for r in stats.retries} == {"worker-start"}
        assert recovered.meta["supervisor"]["retries"] == stats.retries
        assert multiprocessing.active_children() == []

    def test_start_failure_counts_every_range_in_the_parent(
        self, points, serial, ctx, ledgers, monkeypatch
    ):
        attempts = []

        def start(self):
            attempts.append(1)
            raise OSError(errno.EAGAIN, "injected: cannot fork")

        monkeypatch.setattr(ctx.Process, "start", start)
        recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
        assert attempts == [1]  # the first failed start ends the fan-out
        self.assert_counted_in_parent(serial, recovered, ledgers)

    def test_started_workers_are_reaped_when_a_later_start_fails(
        self, points, serial, ctx, ledgers, monkeypatch
    ):
        real = ctx.Process.start
        started = []

        def start(self):
            if started:
                raise OSError(errno.EAGAIN, "injected: cannot fork")
            real(self)
            started.append(self)

        monkeypatch.setattr(ctx.Process, "start", start)
        recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
        assert len(started) == 1 and started[0].exitcode is not None
        self.assert_counted_in_parent(serial, recovered, ledgers)

    def test_pipe_failure_counts_every_range_in_the_parent(
        self, points, serial, ctx, ledgers, monkeypatch
    ):
        def pipe(self, duplex=True):
            raise OSError(errno.EMFILE, "injected: too many open files")

        monkeypatch.setattr(type(ctx), "Pipe", pipe)
        recovered = dbscan(points, EPS, MIN_PTS, algorithm="grid", workers=cfg())
        self.assert_counted_in_parent(serial, recovered, ledgers)


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

        par = cfg(shard_timeout=0.75 if fault == "hang" else 5.0)
        name = f"stress[{round_seed}] n={n} d={d} fault={fault}@{phase}/{shard}"
        with inject_faults(**schedule) as plan:
            result = dbscan(pts, eps, min_pts, algorithm="grid", workers=par)
            if fault in ("kill", "hang"):
                assert plan.worker_faults_fired(fault) == 1, f"{name}: fault never fired"
        assert_identical(oracle, result, name)
        assert result.meta["workers"] == 2, f"{name}: the pool never ran"
        sup = result.meta["supervisor"]
        reason = {"kill": "worker-death", "hang": "timeout", "poison": "error"}
        if fault != "none":
            assert ledger_names(sup, phase, shard, reason[fault]), (
                f"{name}: supervisor ledger does not name the faulted range"
            )
        else:
            assert sup == {"retries": [], "timeouts": 0}, name
        assert leaked_segments() == [], f"{name}: leaked /dev/shm segments"


#: Child-interpreter script for :class:`TestBoundedTeardown`.  Fork copies
#: the patched ``trigger_worker_fault`` into the workers: range 0's worker
#: records its pid, ignores SIGTERM and sleeps for 20 s.
STALLED_TEARDOWN = r"""
import json, multiprocessing, os, signal, sys, time
import numpy as np
from repro.api import dbscan
from repro.parallel import ParallelConfig
from repro.runtime import faultinject

pid_file = sys.argv[1]

def stall(spec, phase, seq):
    if seq == 0:
        with open(pid_file, "w") as fh:
            fh.write(str(os.getpid()))
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(20.0)

faultinject.trigger_worker_fault = stall
points = np.random.default_rng(7).uniform(0.0, 100.0, size=(400, 2))
serial = dbscan(points, 5.0, 4, algorithm="grid")
t0 = time.monotonic()
with faultinject.inject_faults(hang_shards=[("cores", 0)]):
    result = dbscan(points, 5.0, 4, algorithm="grid",
                    workers=ParallelConfig(workers=2, min_points=0, shard_timeout=0.5))
elapsed = time.monotonic() - t0
with open(pid_file) as fh:
    pid = int(fh.read())
try:
    os.kill(pid, 0)
    alive = True
except ProcessLookupError:
    alive = False
borders = np.flatnonzero(serial.border_mask)
print(json.dumps({
    "identical": bool(
        np.array_equal(serial.labels, result.labels)
        and np.array_equal(serial.core_mask, result.core_mask)
        and all(serial.memberships_of(int(i)) == result.memberships_of(int(i))
                for i in borders)
    ),
    "elapsed": elapsed,
    "stalled_worker_alive": alive,
    "children": len(multiprocessing.active_children()),
    "ledger": result.meta["supervisor"],
}))
"""


class TestBoundedTeardown:
    def test_worker_ignoring_sigterm_is_torn_down(self, tmp_path):
        # A hung worker that ignores SIGTERM must not stall the teardown:
        # the run finishes in the parent within seconds and leaves no
        # child behind.  Driven from a child interpreter so a stalled
        # teardown fails this test at the timeout instead of hanging it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", STALLED_TEARDOWN, str(tmp_path / "stalled.pid")],
            capture_output=True, text=True, timeout=60, env=env, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["identical"], "teardown changed the output"
        assert out["elapsed"] < 10.0, f"run took {out['elapsed']:.1f} s"
        assert not out["stalled_worker_alive"], "the stalled worker outlived the run"
        assert out["children"] == 0
        assert any(
            r["shard"] == 0 and r["reason"] == "timeout" for r in out["ledger"]["retries"]
        )
