"""Failures through the service path.

These tests stage hard failures, budget failures and overload behind the
*service* front door and hold it to the service's contract: the request
either answers byte-identically to the serial oracle or fails with a
structured error — and coalesced waiters always share that fate, never
hang.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import dbscan
from repro.errors import (
    DatasetQuarantinedError,
    ServiceError,
    ServiceOverloadError,
)
from repro.service import AdmissionPolicy, ServiceClient

EPS = 5.0
MIN_PTS = 4


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.uniform(0.0, 100.0, size=(400, 2))


@pytest.fixture(scope="module")
def serial(points):
    return dbscan(points, EPS, MIN_PTS, algorithm="grid")


@pytest.fixture()
def client(points):
    with ServiceClient(policy=AdmissionPolicy(max_queue=16)) as c:
        c.register("blobs", points)
        yield c


def assert_identical(serial_result, recovered, name):
    assert np.array_equal(serial_result.labels, recovered.labels), name
    assert np.array_equal(serial_result.core_mask, recovered.core_mask), name


class TestHardFailuresAndBreaker:
    def test_breaker_opens_after_repeated_hard_failures(self, points):
        policy = AdmissionPolicy(breaker_threshold=2, breaker_cooldown=60.0)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)

            def execute(entry, job):
                raise RuntimeError("injected: infrastructure on fire")

            client.service._execute = execute
            for i in range(2):
                with pytest.raises(RuntimeError):
                    client.cluster("blobs", EPS + i, MIN_PTS, timeout=60)
            # Third request never reaches execution: quarantined.
            with pytest.raises(DatasetQuarantinedError) as err:
                client.cluster("blobs", EPS, MIN_PTS, timeout=60)
            assert err.value.failures == 2
            assert err.value.retry_after > 0
            # ``quarantined`` counts every refused request, not the
            # one-time breaker-opening event.
            with pytest.raises(DatasetQuarantinedError):
                client.cluster("blobs", EPS + 9, MIN_PTS, timeout=60)
            stats = client.stats()
            assert stats["quarantined"] == 2
            assert stats["executed"] == 0
            # Quarantine happens before admission: accepted/rejected
            # cover only the two requests that reached the engine.
            assert stats["accepted"] == 2 and stats["rejected"] == 0

    def test_breaker_half_open_probe_restores_service(self, points, serial):
        policy = AdmissionPolicy(breaker_threshold=1, breaker_cooldown=0.05)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            real = client.service._execute

            def execute(entry, job):
                raise RuntimeError("injected: transient outage")

            client.service._execute = execute
            with pytest.raises(RuntimeError):
                client.cluster("blobs", EPS, MIN_PTS, timeout=60)
            with pytest.raises(DatasetQuarantinedError):
                client.cluster("blobs", EPS, MIN_PTS, timeout=60)
            # Outage ends; after the cooldown the half-open probe passes
            # and its success closes the breaker for everyone.
            client.service._execute = real
            time.sleep(0.06)
            result = client.cluster("blobs", EPS, MIN_PTS, timeout=180)
            assert_identical(serial, result, "post-probe")
            assert client.service.breaker.snapshot() == {}

    def test_shed_probe_does_not_wedge_the_breaker(self, points, serial):
        # Regression: the half-open probe flag leaked when the probe
        # request exited without an infrastructure verdict — here, shed
        # by admission because its deadline was already expired.  The
        # probing flag then stayed True forever and every later request
        # raised DatasetQuarantinedError with no recovery path.
        policy = AdmissionPolicy(breaker_threshold=1, breaker_cooldown=0.05)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            real = client.service._execute

            def execute(entry, job):
                raise RuntimeError("injected: transient outage")

            client.service._execute = execute
            with pytest.raises(RuntimeError):
                client.cluster("blobs", EPS, MIN_PTS, timeout=60)
            client.service._execute = real
            time.sleep(0.06)
            # The probe request is shed before it reaches the engine.
            with pytest.raises(ServiceOverloadError):
                client.cluster(
                    "blobs", EPS, MIN_PTS, time_budget=1e-9, timeout=60
                )
            # The slot was released: the next request probes, succeeds,
            # and closes the breaker for everyone.
            result = client.cluster("blobs", EPS, MIN_PTS, timeout=180)
            assert_identical(serial, result, "post-aborted-probe")
            assert client.service.breaker.snapshot() == {}

    def test_budget_failures_do_not_trip_breaker(self, points):
        from repro.errors import TimeoutExceeded

        policy = AdmissionPolicy(breaker_threshold=1)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)

            def execute(entry, job):
                raise TimeoutExceeded(2.0, 1.0)

            client.service._execute = execute
            for _ in range(3):
                with pytest.raises(TimeoutExceeded):
                    client.cluster("blobs", EPS, MIN_PTS, timeout=60)
            assert client.service.breaker.snapshot() == {}
            assert client.stats()["quarantined"] == 0


class TestCoalescedWaitersUnderFailure:
    def test_waiters_share_the_leaders_structured_error(self, points):
        policy = AdmissionPolicy(max_queue=16, breaker_threshold=10)
        with ServiceClient(policy=policy) as client:
            client.register("blobs", points)
            release = threading.Event()
            started = threading.Event()

            def execute(entry, job):
                started.set()
                assert release.wait(timeout=60)
                raise RuntimeError("injected: infrastructure lost mid-request")

            client.service._execute = execute
            leader = client.submit(
                client.service.cluster("blobs", EPS, MIN_PTS)
            )
            started.wait(timeout=30)
            waiters = [
                client.submit(client.service.cluster("blobs", EPS, MIN_PTS))
                for _ in range(4)
            ]
            release.set()
            # Nobody hangs: every request fails promptly with the same
            # structured error class the leader saw.
            for fut in [leader] + waiters:
                with pytest.raises(RuntimeError):
                    fut.result(timeout=30)
            stats = client.stats()
            assert stats["coalesced"] == 4
            assert stats["failed"] == 1  # one execution, one failure
            assert client.service.admission.depth == 0
            assert client.service.flights.in_flight() == 0

    def test_waiters_share_the_leaders_result_bytes(self, client, points):
        release = threading.Event()
        started = threading.Event()
        real = client.service._execute

        def execute(entry, job):
            started.set()
            assert release.wait(timeout=60)
            return real(entry, job)

        client.service._execute = execute
        leader = client.submit(client.service.cluster("blobs", EPS, MIN_PTS))
        started.wait(timeout=30)
        waiters = [
            client.submit(client.service.cluster("blobs", EPS, MIN_PTS))
            for _ in range(4)
        ]
        release.set()
        responses = [f.result(timeout=120) for f in [leader] + waiters]
        blob = None
        for response in responses:
            clustering = response["clustering"]
            members = (clustering["labels"], clustering["overflow_points"],
                       clustering["overflow_clusters"], clustering["core_mask"])
            blob = members if blob is None else blob
            assert members == blob
        assert client.service.registry.get("blobs").engine.runs_executed == 1

    def test_service_errors_are_one_family(self):
        # The CLI maps the whole family to exit code 7; the wire maps it
        # to structured codes.  Both rely on the shared base class.
        assert issubclass(DatasetQuarantinedError, ServiceError)
