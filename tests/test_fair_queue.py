"""Tests for weighted fair queueing, deadline scheduling, and metrics.

The fairness bar from the tentpole spec:

* a tenant bursting far more work than its weight justifies cannot
  starve a light tenant: completed shares converge to the weight ratio
  (the oracle tolerates 2x of the configured share);
* within one tenant, higher priority runs first and earliest deadline
  breaks ties, so a feasible soon-to-expire request never loses its slot
  to lazier work;
* hopeless requests (deadline already expired) are shed immediately with
  a structured verdict, at enqueue or at pop, never silently dropped;
* per-tenant quotas bound queued and in-flight work with typed errors.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.errors import ServiceOverloadError
from repro.runtime.deadline import Deadline
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionPolicy as _AP,  # noqa: F401 - re-exported surface check
    FairScheduler,
    render_metrics,
)


def run(coro):
    return asyncio.run(coro)


def make_sched(slots=1, config=None):
    return FairScheduler(slots, config=config)


async def drive(sched, arrivals, *, hold=0):
    """Enqueue ``arrivals`` = [(tenant, priority, deadline)] concurrently,
    record the order slots are granted, release each immediately."""
    order = []

    async def one(tenant, priority, deadline):
        await sched.acquire(tenant, deadline, priority)
        order.append(tenant)
        if hold:
            await asyncio.sleep(hold)
        sched.release(tenant)

    results = await asyncio.gather(
        *(one(*a) for a in arrivals), return_exceptions=True
    )
    return order, results


class TestFairScheduler:
    def test_single_tenant_all_complete(self):
        sched = make_sched(slots=2)
        order, results = run(drive(sched, [("t", 0, None)] * 10))
        assert len(order) == 10
        assert not any(isinstance(r, Exception) for r in results)

    def test_weighted_share_within_oracle_bound(self):
        # The acceptance oracle: a 16:1 weight split under a saturating
        # burst from both tenants.  The minority tenant's completed share
        # must be within 2x of its configured share.
        weights = {"heavy": 16.0, "light": 1.0}
        sched = make_sched(
            slots=1, config=lambda t: (weights[t], None, None)
        )
        N = 68  # 4 full DRR cycles of 17

        async def scenario():
            order = []
            done = asyncio.Event()

            async def one(tenant):
                await sched.acquire(tenant, None, 0)
                order.append(tenant)
                # Hold the slot across a yield: without it a granted
                # future resolves synchronously and the burst never
                # actually contends.
                await asyncio.sleep(0)
                sched.release(tenant)
                if len(order) >= N:
                    done.set()

            # Saturate: every request of both tenants is queued up front.
            tasks = [asyncio.ensure_future(one("heavy")) for _ in range(N)]
            tasks += [asyncio.ensure_future(one("light")) for _ in range(N)]
            await asyncio.sleep(0)  # let them all enqueue
            await asyncio.wait_for(done.wait(), 10)
            completed = order[:N]
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            return completed

        completed = run(scenario())
        light_share = completed.count("light") / len(completed)
        configured = 1.0 / 17.0
        assert light_share >= configured / 2.0
        # And the heavy tenant still gets the lion's share.
        assert completed.count("heavy") > completed.count("light")

    def test_interleaving_not_fifo(self):
        # FIFO would run all 6 of tenant a's burst, then b's one request.
        # DRR at equal weights alternates.
        sched = make_sched(slots=1)

        async def scenario():
            order = []

            async def one(tenant):
                await sched.acquire(tenant, None, 0)
                order.append(tenant)
                await asyncio.sleep(0)
                sched.release(tenant)

            burst = [asyncio.ensure_future(one("a")) for _ in range(6)]
            await asyncio.sleep(0)
            tail = asyncio.ensure_future(one("b"))
            await asyncio.gather(*burst, tail)
            return order

        order = run(scenario())
        # b arrived after a's whole burst but runs long before it drains.
        assert order.index("b") <= 2

    def test_priority_orders_within_tenant(self):
        sched = make_sched(slots=1)

        async def scenario():
            order = []

            async def one(label, priority):
                await sched.acquire("t", None, priority)
                order.append(label)
                sched.release("t")

            # Hold the only slot so the rest queue, then release it.
            await sched.acquire("t", None, 0)
            tasks = [
                asyncio.ensure_future(one("low", 0)),
                asyncio.ensure_future(one("high", 5)),
                asyncio.ensure_future(one("mid", 2)),
            ]
            await asyncio.sleep(0)
            sched.release("t")
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == ["high", "mid", "low"]

    def test_earliest_deadline_first_within_priority(self):
        sched = make_sched(slots=1)

        async def scenario():
            order = []

            async def one(label, deadline):
                await sched.acquire("t", deadline, 0)
                order.append(label)
                sched.release("t")

            await sched.acquire("t", None, 0)
            tasks = [
                asyncio.ensure_future(one("late", Deadline(60.0))),
                asyncio.ensure_future(one("soon", Deadline(5.0))),
                asyncio.ensure_future(one("never", None)),
            ]
            await asyncio.sleep(0)
            sched.release("t")
            await asyncio.gather(*tasks)
            return order

        assert run(scenario()) == ["soon", "late", "never"]

    def test_expired_deadline_shed_at_enqueue(self):
        sched = make_sched(slots=1)

        async def scenario():
            dead = Deadline(1e-9)
            await asyncio.sleep(0.01)
            with pytest.raises(ServiceOverloadError) as err:
                await sched.acquire("t", dead, 0)
            return err.value

        exc = run(scenario())
        assert exc.reason == "deadline-expired"
        assert sched.snapshot()["t"]["shed"] == 1

    def test_expired_while_queued_shed_at_pop(self):
        sched = make_sched(slots=1)

        async def scenario():
            await sched.acquire("t", None, 0)  # hold the slot
            waiter = asyncio.ensure_future(
                sched.acquire("t", Deadline(0.02), 0)
            )
            await asyncio.sleep(0.08)  # let the deadline lapse queued
            sched.release("t")
            with pytest.raises(ServiceOverloadError) as err:
                await waiter
            return err.value

        exc = run(scenario())
        assert exc.reason == "deadline-expired"
        assert sched.snapshot()["t"]["expired"] == 1

    def test_feasible_deadline_never_expires_behind_lower_priority(self):
        # The oracle's scheduling clause: while a feasible-deadline
        # request waits, lower-priority work of the same tenant must not
        # overtake it and burn its time.
        sched = make_sched(slots=1)

        async def scenario():
            order = []

            async def one(label, priority, deadline):
                await sched.acquire("t", deadline, priority)
                order.append(label)
                await asyncio.sleep(0.01)
                sched.release("t")

            await sched.acquire("t", None, 0)
            urgent = asyncio.ensure_future(one("urgent", 1, Deadline(0.5)))
            lazy = [
                asyncio.ensure_future(one(f"lazy{i}", 0, None))
                for i in range(5)
            ]
            await asyncio.sleep(0)
            sched.release("t")
            await asyncio.gather(urgent, *lazy)
            return order

        order = run(scenario())
        assert order[0] == "urgent"

    def test_tenant_queue_quota_sheds_with_retry_after(self):
        sched = make_sched(slots=1, config=lambda t: (1.0, 2, None))

        async def scenario():
            await sched.acquire("t", None, 0)  # hold the slot
            queued = [
                asyncio.ensure_future(sched.acquire("t", None, 0))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadError) as err:
                await sched.acquire("t", None, 0)
            for task in queued:
                task.cancel()
            sched.release("t")
            await asyncio.gather(*queued, return_exceptions=True)
            return err.value

        exc = run(scenario())
        assert exc.reason == "tenant-queue-full"
        assert exc.retry_after is not None and exc.retry_after > 0

    def test_tenant_max_inflight_respected(self):
        sched = make_sched(slots=4, config=lambda t: (1.0, None, 1))

        async def scenario():
            peak = 0

            async def one():
                nonlocal peak
                await sched.acquire("t", None, 0)
                peak = max(peak, sched.snapshot()["t"]["inflight"])
                await asyncio.sleep(0.01)
                sched.release("t")

            await asyncio.gather(*(one() for _ in range(6)))
            return peak

        # Four slots free, but the tenant may only ever hold one.
        assert run(scenario()) == 1

    def test_no_starvation_randomized(self):
        # Property: whatever the (seeded) arrival pattern and weights,
        # every request either completes or is shed with a verdict —
        # nobody waits forever.
        rng = random.Random(1234)
        weights = {"a": 0.3, "b": 1.0, "c": 7.0}
        sched = make_sched(
            slots=2, config=lambda t: (weights[t], None, None)
        )

        async def scenario():
            outcomes = []

            async def one(tenant):
                try:
                    await sched.acquire(tenant, None, 0)
                except ServiceOverloadError:
                    outcomes.append("shed")
                    return
                await asyncio.sleep(rng.random() * 0.002)
                sched.release(tenant)
                outcomes.append("done")

            tasks = []
            for _ in range(120):
                tenant = rng.choice("abc")
                tasks.append(asyncio.ensure_future(one(tenant)))
                if rng.random() < 0.3:
                    await asyncio.sleep(0.001)
            await asyncio.wait_for(asyncio.gather(*tasks), 30)
            return outcomes

        outcomes = run(scenario())
        assert len(outcomes) == 120
        assert outcomes.count("done") == 120  # no quotas: all complete
        snap = sched.snapshot()
        assert sum(s["dispatched"] for s in snap.values()) == 120
        assert all(s["queued"] == 0 and s["inflight"] == 0 for s in snap.values())


# ------------------------------------------------------ per-tenant admission


class TestTenantAdmission:
    def test_tenant_quota_sheds_before_global(self):
        ctrl = AdmissionController(AdmissionPolicy(max_queue=10, tenant_max_queue=2))
        ctrl.admit(tenant="a")
        ctrl.admit(tenant="a")
        with pytest.raises(ServiceOverloadError) as err:
            ctrl.admit(tenant="a")
        assert err.value.reason == "tenant-quota"
        ctrl.admit(tenant="b")  # other tenants unaffected
        assert ctrl.tenant_depth("a") == 2
        assert ctrl.tenant_depth("b") == 1
        ctrl.release("a")
        ctrl.admit(tenant="a")  # released capacity is usable again

    def test_explicit_quota_overrides_policy_default(self):
        ctrl = AdmissionController(AdmissionPolicy(max_queue=10, tenant_max_queue=1))
        ctrl.admit(tenant="a", tenant_quota=3)
        ctrl.admit(tenant="a", tenant_quota=3)
        ctrl.admit(tenant="a", tenant_quota=3)
        with pytest.raises(ServiceOverloadError):
            ctrl.admit(tenant="a", tenant_quota=3)

    def test_draining_refuses_everything(self):
        ctrl = AdmissionController(AdmissionPolicy(max_queue=10, drain_timeout=7.0))
        ctrl.admit(tenant="a")
        ctrl.start_draining()
        with pytest.raises(ServiceOverloadError) as err:
            ctrl.admit(tenant="b")
        assert err.value.reason == "draining"
        assert err.value.retry_after == 7.0
        ctrl.release("a")  # in-flight work still drains out

    def test_policy_validation(self):
        with pytest.raises(Exception):
            AdmissionPolicy(tenant_max_queue=0)
        with pytest.raises(Exception):
            AdmissionPolicy(tenant_max_inflight=0)
        with pytest.raises(Exception):
            AdmissionPolicy(drain_timeout=-1.0)


# ------------------------------------------------------------------ metrics


class TestMetricsRender:
    def stats(self):
        return {
            "uptime": 12.5,
            "queue_depth": 3,
            "queue_limit": 32,
            "in_flight": 2,
            "draining": False,
            "datasets": 4,
            "accepted": 100,
            "rejected": 5,
            "expired": 1,
            "coalesced": 40,
            "executed": 59,
            "degraded": 2,
            "failed": 0,
            "quarantined": 0,
            "tiers": {"exact": 50, "approx": 9},
            "tenants": {
                "alice": {"weight": 16.0, "queued": 1, "inflight": 1,
                          "dispatched": 50, "shed": 2, "expired": 0},
            },
            "breakers": {"blobs": {"open": True, "failures": 3,
                                   "retry_after": 12.0}},
        }

    def test_prometheus_text_shape(self):
        body = render_metrics(self.stats())
        lines = body.splitlines()
        assert 'repro_service_requests_total{outcome="accepted"} 100' in lines
        assert 'repro_service_tenant_weight{tenant="alice"} 16' in lines
        assert 'repro_service_tenant_dispatched_total{tenant="alice"} 50' in lines
        assert 'repro_service_tier_executions_total{tier="exact"} 50' in lines
        assert 'repro_service_breaker_open{dataset="blobs"} 1' in lines
        assert "repro_service_draining 0" in lines
        # Every metric family is announced with HELP + TYPE.
        helped = {l.split()[2] for l in lines if l.startswith("# HELP")}
        typed = {l.split()[2] for l in lines if l.startswith("# TYPE")}
        assert helped == typed
        for line in lines:
            if not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                assert name in helped

    def test_label_escaping(self):
        stats = self.stats()
        stats["tenants"] = {'we"ird\\t\nenant': {"weight": 1.0}}
        body = render_metrics(stats)
        assert '\\"' in body and "\\\\" in body and "\\n" in body
