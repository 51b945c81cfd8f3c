"""Tests for the clustering service: registry, admission, coalescing, tiers.

The acceptance bar for the service front-end:

* N identical concurrent requests execute the clustering **exactly once**
  (verified through :meth:`ClusteringEngine.run_counts`, the engine-level
  execution counter) and every response is byte-identical to a direct
  ``dbscan()`` call on the same data;
* under synthetic overload, every excess request is shed or degraded with
  a structured, machine-readable verdict — never an unbounded queue and
  never a silent hang;
* every accepted request's response records ``{tier, reason}``.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.engine import ClusteringEngine
from repro.errors import (
    DatasetQuarantinedError,
    ParameterError,
    ServiceError,
    ServiceOverloadError,
    TimeoutExceeded,
    UnknownDatasetError,
)
from repro.runtime.deadline import Deadline, tightest
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    CircuitBreaker,
    ClusteringService,
    DatasetRegistry,
    RequestKey,
    ServiceClient,
)
from repro.service.server import error_payload

EPS = 6.0
MIN_PTS = 5


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(42)
    return np.vstack([
        rng.normal(25.0, 2.0, size=(150, 2)),
        rng.normal(70.0, 3.0, size=(150, 2)),
        rng.uniform(0.0, 100.0, size=(40, 2)),
    ])


@pytest.fixture()
def client(points):
    with ServiceClient(policy=AdmissionPolicy(max_queue=16)) as c:
        c.register("blobs", points)
        yield c


# --------------------------------------------------------------- request key


class TestRequestKey:
    def test_normalises_types(self):
        a = RequestKey.build("ds", 1, 5)
        b = RequestKey.build("ds", 1.0, 5.0)
        assert a == b and hash(a) == hash(b)

    def test_distinct_parameters_distinct_keys(self):
        base = RequestKey.build("ds", 1.0, 5)
        assert RequestKey.build("ds", 2.0, 5) != base
        assert RequestKey.build("ds", 1.0, 6) != base
        assert RequestKey.build("ds", 1.0, 5, rho=0.01) != base
        assert RequestKey.build("ds", 1.0, 5, workers=2) != base
        assert RequestKey.build("other", 1.0, 5) != base

    def test_requested_tier_distinguishes_keys(self):
        # An explicit sampled request must not share a flight with an
        # approx one — coalescing must never downgrade quality.
        approx = RequestKey.build("ds", 1.0, 5, algorithm="approx",
                                  requested="approx")
        sampled = RequestKey.build("ds", 1.0, 5, algorithm="approx",
                                   requested="sampled")
        assert approx != sampled

    def test_unhashable_workers_fall_back_to_repr(self):
        from repro.parallel import ParallelConfig

        key = RequestKey.build("ds", 1.0, 5, workers=ParallelConfig(workers=2))
        assert isinstance(key.workers, str)
        assert hash(key)  # hashable


# ---------------------------------------------------------------- admission


class TestAdmission:
    def test_sheds_past_queue_bound(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue=2))
        ctl.admit()
        ctl.admit()
        with pytest.raises(ServiceOverloadError) as err:
            ctl.admit()
        assert err.value.reason == "queue-full"
        assert err.value.queue_depth == 2
        assert err.value.limit == 2
        assert err.value.retry_after is not None
        ctl.release()
        ctl.admit()  # capacity freed -> admitted again

    def test_sheds_expired_deadline(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue=8))
        dl = Deadline(1e-9)
        time.sleep(0.001)
        with pytest.raises(ServiceOverloadError) as err:
            ctl.admit(dl)
        assert err.value.reason == "deadline-expired"
        assert ctl.depth == 0  # never counted in

    def test_ladder_degrades_with_queue_pressure(self):
        policy = AdmissionPolicy(max_queue=4, degrade_pressure=0.5,
                                 sample_pressure=0.85)
        ctl = AdmissionController(policy)
        assert ctl.choose_tier("exact") == ("exact", "requested")
        ctl.admit(), ctl.admit()
        tier, reason = ctl.choose_tier("exact")
        assert tier == "approx" and "queue-pressure" in reason
        # An approx request at the same pressure is NOT degraded further.
        assert ctl.choose_tier("approx")[0] == "approx"
        ctl.admit(), ctl.admit()
        assert ctl.choose_tier("exact")[0] == "sampled"
        assert ctl.choose_tier("approx")[0] == "sampled"

    def test_memory_pressure_forces_sampled_tier(self):
        # A 1 MB budget is far below any real interpreter RSS, so the
        # memory leg trips deterministically.
        ctl = AdmissionController(AdmissionPolicy(memory_budget_mb=1.0))
        tier, reason = ctl.choose_tier("exact")
        assert tier == "sampled"
        assert "memory-pressure" in reason

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            AdmissionPolicy(max_queue=0)
        with pytest.raises(ParameterError):
            AdmissionPolicy(degrade_pressure=0.9, sample_pressure=0.5)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        brk = CircuitBreaker(threshold=2, cooldown=60.0)
        brk.check("ds")
        assert brk.record_failure("ds") == 1
        brk.check("ds")  # still closed
        assert brk.record_failure("ds") == 2
        with pytest.raises(DatasetQuarantinedError) as err:
            brk.check("ds")
        assert err.value.failures == 2
        assert err.value.retry_after > 0
        assert brk.snapshot()["ds"]["open"]

    def test_half_open_allows_one_probe(self):
        brk = CircuitBreaker(threshold=1, cooldown=0.01)
        brk.record_failure("ds")
        time.sleep(0.02)
        brk.check("ds")  # the single half-open probe passes
        with pytest.raises(DatasetQuarantinedError):
            brk.check("ds")  # everyone else stays quarantined
        brk.record_success("ds")
        brk.check("ds")  # closed again
        assert brk.snapshot() == {}

    def test_failed_probe_reopens(self):
        brk = CircuitBreaker(threshold=1, cooldown=0.01)
        brk.record_failure("ds")
        time.sleep(0.02)
        brk.check("ds")
        brk.record_failure("ds")  # probe failed
        with pytest.raises(DatasetQuarantinedError):
            brk.check("ds")

    def test_check_reports_probe_ownership(self):
        brk = CircuitBreaker(threshold=1, cooldown=0.01)
        assert brk.check("ds") is False  # closed: not a probe
        brk.record_failure("ds")
        time.sleep(0.02)
        assert brk.check("ds") is True  # the single half-open probe

    def test_aborted_probe_frees_the_slot(self):
        # Regression: a probe that exits without reaching
        # record_success/record_failure (shed by admission, invalid
        # parameters, budget verdict) must free the half-open slot — a
        # leaked probing flag quarantined the dataset forever.
        brk = CircuitBreaker(threshold=1, cooldown=0.01)
        brk.record_failure("ds")
        time.sleep(0.02)
        assert brk.check("ds") is True
        with pytest.raises(DatasetQuarantinedError):
            brk.check("ds")  # slot taken
        brk.probe_aborted("ds")  # probe never got a verdict
        assert brk.check("ds") is True  # the next request may probe

    def test_probe_aborted_after_verdict_is_noop(self):
        brk = CircuitBreaker(threshold=1, cooldown=0.01)
        brk.record_failure("ds")
        time.sleep(0.02)
        assert brk.check("ds") is True
        brk.record_success("ds")
        brk.probe_aborted("ds")  # late abort after success: no effect
        assert brk.snapshot() == {}
        assert brk.check("ds") is False

    def test_datasets_isolated(self):
        brk = CircuitBreaker(threshold=1, cooldown=60.0)
        brk.record_failure("bad")
        brk.check("good")  # unaffected


# ----------------------------------------------------------------- registry


class TestRegistry:
    def test_register_and_lookup(self, points):
        reg = DatasetRegistry()
        info = reg.register("a", points)
        assert info["n"] == len(points) and info["tenant"] == "default"
        assert "a" in reg and len(reg) == 1
        assert reg.get("a").engine.matches(points)

    def test_unknown_dataset_error_lists_known(self, points):
        reg = DatasetRegistry()
        reg.register("a", points)
        with pytest.raises(UnknownDatasetError) as err:
            reg.get("b")
        assert err.value.known == ("a",)
        assert "registered" in str(err.value)

    def test_reregister_same_data_idempotent(self, points):
        reg = DatasetRegistry()
        reg.register("a", points)
        reg.register("a", points)  # no error
        assert len(reg) == 1

    def test_reregister_different_data_rejected(self, points):
        reg = DatasetRegistry()
        reg.register("a", points)
        with pytest.raises(ParameterError, match="different data"):
            reg.register("a", points * 2.0)

    def test_needs_exactly_one_source(self, points):
        reg = DatasetRegistry()
        with pytest.raises(ParameterError):
            reg.register("a")
        with pytest.raises(ParameterError):
            reg.register("a", points, "/tmp/also.csv")

    def test_register_from_path(self, points, tmp_path):
        path = str(tmp_path / "pts.csv")
        np.savetxt(path, points, delimiter=",")
        reg = DatasetRegistry()
        info = reg.register("file", path=path)
        assert info["source"] == path and info["n"] == len(points)

    def test_capacity_bound(self, points):
        reg = DatasetRegistry(max_datasets=1)
        reg.register("a", points)
        with pytest.raises(ParameterError, match="full"):
            reg.register("b", points * 0.5)
        assert reg.unregister("a")
        reg.register("b", points * 0.5)

    def test_tenants_get_separate_quota_caches(self, points):
        reg = DatasetRegistry(tenant_quota_mb=8.0)
        reg.register("a", points, tenant="t1")
        reg.register("b", points * 0.5, tenant="t2")
        cache_a = reg.get("a").engine.cache
        cache_b = reg.get("b").engine.cache
        assert cache_a is not cache_b
        assert cache_a.max_mb == 8.0
        reg.set_tenant_quota("t1", 2.0)
        assert cache_a.max_mb == 2.0 and cache_b.max_mb == 8.0

    def test_same_tenant_shares_cache(self, points):
        reg = DatasetRegistry()
        reg.register("a", points, tenant="t")
        reg.register("b", points * 0.5, tenant="t")
        assert reg.get("a").engine.cache is reg.get("b").engine.cache


# --------------------------------------------------------------- coalescing


class TestCoalescing:
    def test_identical_concurrent_requests_execute_exactly_once(
        self, client, points
    ):
        n = 8
        results = client.cluster_many(
            [{"dataset": "blobs", "eps": EPS, "min_pts": MIN_PTS}] * n,
            timeout=120,
            return_exceptions=False,
        )
        engine = client.service.registry.get("blobs").engine
        assert engine.runs_executed == 1, engine.run_counts()
        direct = ClusteringEngine(points).dbscan(EPS, MIN_PTS)
        for res in results:
            assert res.labels.tobytes() == direct.labels.tobytes()
            assert np.array_equal(res.core_mask, direct.core_mask)
        flags = sorted(r.meta["service"]["coalesced"] for r in results)
        assert flags == [False] + [True] * (n - 1)
        stats = client.stats()
        assert stats["executed"] == 1
        assert stats["coalesced"] == n - 1
        assert stats["accepted"] == n

    def test_distinct_requests_do_not_coalesce(self, client):
        results = client.cluster_many(
            [
                {"dataset": "blobs", "eps": EPS, "min_pts": MIN_PTS},
                {"dataset": "blobs", "eps": EPS * 1.5, "min_pts": MIN_PTS},
            ],
            timeout=120,
            return_exceptions=False,
        )
        assert client.service.registry.get("blobs").engine.runs_executed == 2
        assert all(not r.meta["service"]["coalesced"] for r in results)

    def test_sequential_repeats_rerun_through_cache(self, client):
        # Coalescing only covers the concurrent window; sequential repeats
        # go to the engine, whose structure cache makes them cheap.
        client.cluster("blobs", EPS, MIN_PTS, timeout=120)
        client.cluster("blobs", EPS, MIN_PTS, timeout=120)
        assert client.service.registry.get("blobs").engine.runs_executed == 2

    def test_sampled_and_approx_requests_do_not_coalesce(self, points):
        # Regression: the key once conflated explicit "sampled" and
        # "approx" requests, silently serving the approx caller the
        # low-quality sampled result.
        with ServiceClient(policy=AdmissionPolicy(max_queue=8)) as client:
            client.register("blobs", points)
            release = threading.Event()
            started = threading.Event()
            _blocking_execute(client.service, release, started)
            leader = client.submit(
                client.service.cluster("blobs", EPS, MIN_PTS, tier="sampled")
            )
            started.wait(timeout=30)
            other = client.submit(
                client.service.cluster("blobs", EPS, MIN_PTS, tier="approx")
            )
            release.set()
            sampled = leader.result(timeout=120)
            approx = other.result(timeout=120)
            assert sampled["tier"] == "sampled"
            assert approx["tier"] == "approx"  # not the sampled flight's
            assert not approx["coalesced"]
            assert client.stats()["coalesced"] == 0
            assert client.stats()["executed"] == 2


# ------------------------------------------------------ degradation + tiers


class TestDegradation:
    def test_response_always_records_tier_and_reason(self, client):
        res = client.cluster("blobs", EPS, MIN_PTS, timeout=120)
        svc = res.meta["service"]
        assert svc["tier"] == "exact" and svc["reason"] == "requested"
        assert "guarantee" in svc

    def test_requested_approx_and_sampled_tiers(self, client, points):
        res = client.cluster("blobs", EPS, MIN_PTS, rho=0.01, timeout=120)
        assert res.meta["service"]["tier"] == "approx"
        direct = ClusteringEngine(points).approx_dbscan(EPS, MIN_PTS, rho=0.01)
        assert res.labels.tobytes() == direct.labels.tobytes()

        res = client.cluster("blobs", EPS, MIN_PTS, tier="sampled", timeout=120)
        assert res.meta["service"]["tier"] == "sampled"
        assert res.n == len(points)

    def test_queue_pressure_degrades_exact_to_approx(self, points):
        policy = AdmissionPolicy(max_queue=4, degrade_pressure=0.5,
                                 sample_pressure=0.9)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            ctl = client.service.admission
            ctl.admit(), ctl.admit()  # synthetic standing load
            try:
                res = client.cluster("blobs", EPS, MIN_PTS, timeout=120)
            finally:
                ctl.release(), ctl.release()
            svc = res.meta["service"]
            assert svc["tier"] == "approx"
            assert svc["requested"] == "exact"
            assert "queue-pressure" in svc["reason"]
            assert client.stats()["degraded"] == 1
            assert client.stats()["tiers"] == {"approx": 1}

    def test_extreme_pressure_degrades_to_sampled(self, points):
        policy = AdmissionPolicy(max_queue=4, degrade_pressure=0.25,
                                 sample_pressure=0.75)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            ctl = client.service.admission
            for _ in range(3):
                ctl.admit()
            try:
                res = client.cluster("blobs", EPS, MIN_PTS, timeout=120)
            finally:
                for _ in range(3):
                    ctl.release()
            assert res.meta["service"]["tier"] == "sampled"
            # The sampled tier is still a full labeling of the dataset.
            assert res.n == len(points)

    def test_unknown_tier_rejected(self, client):
        with pytest.raises(ParameterError):
            client.cluster("blobs", EPS, MIN_PTS, tier="psychic", timeout=30)


# ----------------------------------------------------------------- overload


def _blocking_execute(service, release, started=None):
    """Monkeypatch service._execute to park until ``release`` is set."""
    real = service._execute

    def execute(entry, job):
        if started is not None:
            started.set()
        assert release.wait(timeout=60), "test forgot to release the executor"
        return real(entry, job)

    service._execute = execute


class TestOverload:
    def test_excess_requests_shed_immediately_with_structured_error(
        self, points
    ):
        policy = AdmissionPolicy(max_queue=2, max_concurrency=1)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            release = threading.Event()
            started = threading.Event()
            _blocking_execute(client.service, release, started)
            futures = [
                client.submit(
                    client.service.cluster("blobs", EPS + i, MIN_PTS)
                )
                for i in range(8)  # distinct keys: no coalescing relief
            ]
            started.wait(timeout=30)
            # The bound admits 2; the other 6 must be shed *while the
            # executor is still parked* — the queue never grows past the
            # bound and rejection does not wait for capacity.
            t0 = time.monotonic()
            while client.stats()["rejected"] < 6:
                assert time.monotonic() - t0 < 10, client.stats()
                time.sleep(0.01)
            assert client.service.admission.depth == 2
            release.set()
            outcomes = []
            for fut in futures:
                try:
                    outcomes.append(fut.result(timeout=60))
                except ServiceOverloadError as exc:
                    assert exc.reason == "queue-full"
                    assert exc.limit == 2
                    outcomes.append(exc)
            shed = [o for o in outcomes if isinstance(o, ServiceOverloadError)]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert len(shed) == 6
            assert len(served) == 2
            for response in served:
                assert response["tier"] and response["reason"]
            stats = client.stats()
            assert stats["rejected"] == 6
            assert stats["accepted"] == 2
            assert stats["expired"] == 0  # admission sheds, not expiries
            assert client.service.admission.depth == 0  # fully drained

    def test_waiter_deadline_enforced_while_coalesced(self, points):
        with ServiceClient(policy=AdmissionPolicy(max_queue=8)) as client:
            client.register("blobs", points)
            release = threading.Event()
            started = threading.Event()
            _blocking_execute(client.service, release, started)
            leader = client.submit(
                client.service.cluster("blobs", EPS, MIN_PTS)
            )
            started.wait(timeout=30)
            waiter = client.submit(
                client.service.cluster(
                    "blobs", EPS, MIN_PTS, time_budget=0.05
                )
            )
            with pytest.raises(ServiceOverloadError) as err:
                waiter.result(timeout=30)
            assert err.value.reason == "deadline-expired"
            release.set()
            response = leader.result(timeout=60)
            assert response["tier"] == "exact"  # leader unaffected
            stats = client.stats()
            # The waiter was accepted, then shed post-admission: counted
            # as expired, not rejected — accepted/rejected stay disjoint.
            assert stats["accepted"] == 2
            assert stats["expired"] == 1
            assert stats["rejected"] == 0

    def test_expired_deadline_shed_before_any_work(self, client):
        with pytest.raises(ServiceOverloadError) as err:
            client.cluster("blobs", EPS, MIN_PTS, time_budget=1e-9, timeout=30)
        assert err.value.reason == "deadline-expired"
        assert client.stats()["executed"] == 0


# ------------------------------------------------------------- deadline glue


class TestDeadlineHelpers:
    def test_tightest_picks_earliest_expiry(self):
        loose = Deadline(100.0)
        tight = Deadline(0.5)
        assert tightest(loose, tight) is tight
        assert tightest(None, loose) is loose
        assert tightest(None, None) is None
        assert tightest(Deadline(None), loose) is loose

    def test_flat_hierarchy_honours_deadline(self, points):
        from repro.grid.hierarchy import FlatHierarchy

        structure = FlatHierarchy(points, EPS, rho=0.01)
        dl = Deadline(1e-9)
        time.sleep(0.001)
        with pytest.raises(TimeoutExceeded):
            structure.count_many(points[:50], deadline=dl)
        with pytest.raises(TimeoutExceeded):
            structure.any_contains(points[:50], deadline=dl)
        # Without a deadline the same queries answer fine.
        assert len(structure.count_many(points[:50])) == 50


# ------------------------------------------------------------ error payloads


class TestErrorPayloads:
    def test_service_errors_structured(self):
        overload = ServiceOverloadError(
            "q full", reason="queue-full", queue_depth=4, limit=4,
            retry_after=1.0,
        )
        payload = error_payload(overload)
        assert payload["code"] == "overload"
        assert payload["reason"] == "queue-full"
        assert payload["retry_after"] == 1.0
        assert json.dumps(payload)  # JSON-safe

        payload = error_payload(UnknownDatasetError("x", known=("a",)))
        assert payload["code"] == "unknown-dataset"
        payload = error_payload(DatasetQuarantinedError("x", 3, 2.5))
        assert payload["code"] == "quarantined"

    def test_library_errors_mapped_to_taxonomy(self):
        assert error_payload(TimeoutExceeded(2.0, 1.0))["code"] == "timeout"
        assert error_payload(ParameterError("p"))["code"] == "parameter"
        assert error_payload(ValueError("v"))["code"] == "internal"

    def test_service_errors_pickle_roundtrip(self):
        import pickle

        for exc in (
            ServiceOverloadError("m", reason="queue-full", queue_depth=1,
                                 limit=2, retry_after=0.5),
            UnknownDatasetError("x", known=("a", "b")),
            DatasetQuarantinedError("x", 3, 1.5),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.as_dict() == exc.as_dict()

    def test_overload_is_a_service_error(self):
        assert issubclass(ServiceOverloadError, ServiceError)


# ------------------------------------------------------------- wire handler


class TestWireHandle:
    def _handle(self, client, request):
        return client.submit(client.service.handle(request)).result(30)

    def test_missing_fields_answer_parameter_error(self, client):
        response = self._handle(
            client, {"id": 1, "op": "cluster", "dataset": "blobs"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "parameter"
        assert "eps" in response["error"]["message"]
        assert "min_pts" in response["error"]["message"]

    def test_register_requires_name(self, client):
        response = self._handle(client, {"id": 2, "op": "register"})
        assert response["ok"] is False
        assert response["error"]["code"] == "parameter"
        assert "name" in response["error"]["message"]

    def test_internal_keyerror_not_masked_as_caller_mistake(self, client):
        # Regression: a blanket ``except KeyError`` used to report any
        # KeyError escaping library code as a missing request field.
        async def boom(*args, **kwargs):
            raise KeyError("internal-lookup")

        client.service.cluster = boom
        response = self._handle(
            client,
            {"id": 3, "op": "cluster", "dataset": "blobs",
             "eps": EPS, "min_pts": MIN_PTS},
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "internal"
        assert "KeyError" in response["error"]["message"]
