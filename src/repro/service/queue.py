"""Single-flight coalescing, weighted fair queueing, and the counters.

Identical concurrent requests are the common case for a clustering
service — a dashboard fans one parameter setting out to many widgets, a
hyper-parameter sweep retries the eps it already asked for — and the
engine's structure cache only helps *sequential* repeats.
:class:`SingleFlight` closes the concurrent window: the first request for
a :class:`RequestKey` becomes the *leader* and actually computes; every
request arriving while it is in flight *attaches* to the same future and
receives the identical response object.  N identical concurrent requests
therefore execute the clustering exactly once (the acceptance criterion
verified via :meth:`ClusteringEngine.run_counts` and the kernel counters
in ``tests/test_service.py``).

:class:`FairScheduler` replaces the old first-come-first-served execution
gate.  FIFO under multi-tenant load has a well-known failure: a tenant
that bursts 16 requests parks them all at the head of the queue, and
every other tenant waits behind the whole burst.  The scheduler instead
keeps one queue *per tenant* and dispatches by **deficit round robin** —
each pass over the active tenants adds the tenant's configured weight to
its deficit, and a tenant whose deficit covers a request's cost (1) gets
one execution slot — so completed-request shares converge to the weight
ratio regardless of arrival order.  Within a tenant the queue is ordered
by **priority, then earliest deadline**, so soon-to-expire requests run
first, and requests whose deadline already passed are shed at enqueue or
pop time with a structured verdict instead of burning a slot on work
nobody can use.  Per-tenant quotas bound queued and in-flight requests,
so one tenant's backlog can never fill the shared admission bound.

All of this runs on the service's event loop — one thread — so the maps
need no lock; the executor threads doing the actual clustering never
touch them.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceOverloadError
from repro.runtime.deadline import Deadline


@dataclass(frozen=True)
class RequestKey:
    """What makes two cluster requests "the same computation".

    The coalescing key of the tentpole spec: ``(dataset, eps, min_pts,
    rho, workers)`` plus the algorithm family and the tier the caller
    *requested* — an explicit ``tier="sampled"`` request must not share a
    flight with an ``"approx"`` one, or the approx caller silently
    receives the low-quality sampled result.  Deliberately *excluded*:
    the tier the ladder actually *dispatches* (decided once, at dispatch
    time, for the single in-flight computation — every attached waiter
    receives the same result and the same ``{tier, reason}`` metadata)
    and the deadline (each waiter enforces its own while it waits).
    """

    dataset: str
    eps: float
    min_pts: int
    rho: Optional[float]
    workers: object
    algorithm: str = "grid"
    requested: str = "exact"

    @classmethod
    def build(
        cls,
        dataset: str,
        eps: float,
        min_pts: int,
        *,
        rho: Optional[float] = None,
        workers=None,
        algorithm: str = "grid",
        requested: str = "exact",
    ) -> "RequestKey":
        # A ParallelConfig is not hashable; its repr is deterministic and
        # total, which is all a coalescing key needs.
        if workers is not None and not isinstance(workers, (int, str)):
            workers = repr(workers)
        return cls(
            dataset=str(dataset),
            eps=float(eps),
            min_pts=int(min_pts),
            rho=None if rho is None else float(rho),
            workers=workers,
            algorithm=str(algorithm),
            requested=str(requested),
        )


@dataclass
class _Flight:
    """One in-flight computation and the requests attached to it."""

    future: "asyncio.Future"
    waiters: int = 1  # the leader counts too


class SingleFlight:
    """The key -> in-flight-future map (event-loop confined)."""

    def __init__(self) -> None:
        self._flights: Dict[RequestKey, _Flight] = {}

    def acquire(self, key: RequestKey) -> Tuple[_Flight, bool]:
        """Join the flight for ``key``; the bool is "you are the leader".

        The leader must eventually call :meth:`resolve` or
        :meth:`resolve_error` — every attached waiter is awaiting the
        flight's future, and an unresolved future is a hung client.
        """
        flight = self._flights.get(key)
        if flight is not None and not flight.future.done():
            flight.waiters += 1
            return flight, False
        flight = _Flight(future=asyncio.get_running_loop().create_future())
        self._flights[key] = flight
        return flight, True

    def resolve(self, key: RequestKey, response: Dict[str, object]) -> None:
        """Deliver the leader's response to every attached waiter."""
        flight = self._flights.pop(key, None)
        if flight is not None and not flight.future.done():
            flight.future.set_result(response)

    def resolve_error(self, key: RequestKey, exc: BaseException) -> None:
        """Fail every attached waiter with the leader's (structured) error."""
        flight = self._flights.pop(key, None)
        if flight is not None and not flight.future.done():
            flight.future.set_exception(exc)
            # The leader re-raises on its own path; if no waiter ever
            # awaits the future, don't let asyncio log a spurious
            # "exception was never retrieved" warning.
            if flight.waiters <= 1:
                flight.future.exception()

    def in_flight(self) -> int:
        return len(self._flights)


@dataclass
class _Waiter:
    """One request waiting for an execution slot."""

    future: "asyncio.Future"
    tenant: str
    priority: int
    deadline: Optional[Deadline]
    seq: int
    #: Lazy-removal flag: a cancelled waiter stays in its heap until the
    #: dispatcher pops (and skips) it.
    cancelled: bool = False

    def sort_key(self) -> Tuple[float, float, int]:
        # Higher priority first, then earliest deadline (None = never
        # expires = last), then arrival order.
        remaining = self.deadline.remaining() if self.deadline is not None else None
        expiry = float("inf") if remaining is None else remaining
        return (-self.priority, expiry, self.seq)


@dataclass
class TenantShare:
    """Live scheduler accounting for one tenant (the fairness gauges)."""

    weight: float = 1.0
    deficit: float = 0.0
    inflight: int = 0
    #: Requests granted an execution slot over the scheduler's lifetime.
    dispatched: int = 0
    #: Requests shed at enqueue (tenant queue quota / hopeless deadline).
    shed: int = 0
    #: Requests shed at pop time because their deadline expired queued.
    expired: int = 0
    heap: List[Tuple[Tuple[float, float, int], "_Waiter"]] = field(
        default_factory=list, repr=False
    )

    def queued(self) -> int:
        return sum(1 for _, w in self.heap if not w.cancelled)


class FairScheduler:
    """Deficit-round-robin execution slots with per-tenant EDF queues.

    Parameters
    ----------
    slots:
        Concurrent executions (the old ``max_concurrency`` semaphore
        count).
    config:
        ``tenant -> (weight, max_queue, max_inflight)`` resolver; called
        at enqueue time so live re-configuration (weights changed through
        the registry) applies to the next request without a restart.
        ``max_queue`` / ``max_inflight`` of ``None`` mean unbounded /
        bounded only by ``slots``.

    Event-loop confined, like :class:`SingleFlight`.  Usage::

        await scheduler.acquire(tenant, deadline, priority)
        try:
            ...  # run on an executor thread
        finally:
            scheduler.release(tenant)
    """

    def __init__(
        self,
        slots: int,
        config: Optional[Callable[[str], Tuple[float, Optional[int], Optional[int]]]] = None,
    ) -> None:
        if int(slots) < 1:
            raise ValueError(f"slots must be >= 1; got {slots}")
        self.slots = int(slots)
        self._free = int(slots)
        self._config = config if config is not None else (lambda tenant: (1.0, None, None))
        self._shares: Dict[str, TenantShare] = {}
        #: Round-robin order over tenants (stable across dispatches).
        self._ring: List[str] = []
        #: DRR service pointer: the tenant currently being visited, and
        #: whether this visit already granted it its quantum.  Persists
        #: across dispatch calls so a tenant spends its whole deficit
        #: before the pointer moves on — and only gets a fresh quantum
        #: when the pointer *arrives*, not on every free slot.
        self._cursor = 0
        self._topped = False
        self._seq = 0

    # ------------------------------------------------------------ helpers

    def _share(self, tenant: str) -> TenantShare:
        share = self._shares.get(tenant)
        if share is None:
            share = self._shares[tenant] = TenantShare()
            self._ring.append(tenant)
        return share

    def _resolved(self, tenant: str) -> Tuple[float, Optional[int], Optional[int]]:
        weight, max_queue, max_inflight = self._config(tenant)
        return (max(float(weight), 1e-9), max_queue, max_inflight)

    def _overload(self, reason: str, message: str, retry_after: Optional[float]) -> ServiceOverloadError:
        return ServiceOverloadError(
            message,
            reason=reason,
            queue_depth=self.total_queued(),
            limit=self.slots,
            retry_after=retry_after,
        )

    def total_queued(self) -> int:
        return sum(share.queued() for share in self._shares.values())

    def inflight(self) -> int:
        return sum(share.inflight for share in self._shares.values())

    # ------------------------------------------------------------ enqueue

    async def acquire(
        self,
        tenant: str,
        deadline: Optional[Deadline] = None,
        priority: int = 0,
    ) -> None:
        """Wait for an execution slot under the tenant's quota and weight.

        Sheds immediately (structured :class:`ServiceOverloadError`) when
        the tenant's queue quota is full or the request's deadline is
        already hopeless — queueing it would only delay the verdict past
        the point where retrying elsewhere could still help.
        """
        tenant = str(tenant)
        share = self._share(tenant)
        weight, max_queue, max_inflight = self._resolved(tenant)
        share.weight = weight
        if deadline is not None and deadline.expired():
            share.shed += 1
            raise self._overload(
                "deadline-expired",
                f"deadline expired before an execution slot was free (tenant {tenant!r})",
                None,
            )
        if max_queue is not None and share.queued() >= max_queue:
            share.shed += 1
            raise self._overload(
                "tenant-queue-full",
                f"tenant {tenant!r} already has {share.queued()} request(s) "
                f"queued (quota {max_queue})",
                # One slot's worth of patience per queued request ahead.
                max(0.1, share.queued() / float(self.slots)),
            )
        self._seq += 1
        waiter = _Waiter(
            future=asyncio.get_running_loop().create_future(),
            tenant=tenant,
            priority=int(priority),
            deadline=deadline,
            seq=self._seq,
        )
        heapq.heappush(share.heap, (waiter.sort_key(), waiter))
        self._dispatch()
        try:
            await waiter.future
        except asyncio.CancelledError:
            if waiter.future.done() and not waiter.future.cancelled():
                # The slot was granted between the cancellation and this
                # handler: give it back or it leaks forever.
                self.release(tenant, completed=False)
            waiter.cancelled = True
            raise

    def release(self, tenant: str, *, completed: bool = True) -> None:
        """Return a slot taken via :meth:`acquire`; wakes the next waiter."""
        share = self._shares.get(str(tenant))
        if share is not None and share.inflight > 0:
            share.inflight -= 1
            if not completed:
                share.dispatched = max(0, share.dispatched - 1)
        self._free = min(self.slots, self._free + 1)
        self._dispatch()

    # ----------------------------------------------------------- dispatch

    def _pop_live(self, share: TenantShare) -> Optional[_Waiter]:
        """Next live waiter of ``share`` (sheds expired ones on the way)."""
        while share.heap:
            _, waiter = heapq.heappop(share.heap)
            if waiter.cancelled or waiter.future.done():
                continue
            if waiter.deadline is not None and waiter.deadline.expired():
                share.expired += 1
                waiter.future.set_exception(
                    self._overload(
                        "deadline-expired",
                        "deadline expired while queued for an execution slot "
                        f"(tenant {waiter.tenant!r})",
                        None,
                    )
                )
                continue
            return waiter
        return None

    def _eligible(self) -> List[str]:
        out = []
        for tenant in self._ring:
            share = self._shares[tenant]
            if not share.queued():
                # Standard DRR: an idle tenant accumulates no deficit
                # (otherwise it could starve everyone after a long sleep).
                share.deficit = 0.0
                continue
            _, _, max_inflight = self._resolved(tenant)
            limit = self.slots if max_inflight is None else int(max_inflight)
            if share.inflight >= limit:
                continue
            out.append(tenant)
        return out

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % max(1, len(self._ring))
        self._topped = False

    def _dispatch(self) -> None:
        """Grant free slots by deficit round robin until none can move.

        The service pointer (:attr:`_cursor`) visits tenants in ring
        order; arriving at a tenant grants it one quantum (its weight),
        and the pointer stays while the tenant spends its deficit — one
        request per whole unit — then moves on.  A pointer that always
        restarted at the ring head would let the first heavy tenant
        monopolize every free slot while its (large) quantum lasted; the
        rotating pointer is what makes the *interleaving* fair, not just
        the long-run shares.
        """
        while self._free > 0:
            eligible = set(self._eligible())
            if not eligible:
                return
            granted = False
            for _ in range(len(self._ring) + 1):
                tenant = self._ring[self._cursor % len(self._ring)]
                share = self._shares[tenant]
                if tenant not in eligible:
                    self._advance()
                    continue
                if not self._topped:
                    share.deficit += share.weight
                    self._topped = True
                if share.deficit < 1.0:
                    self._advance()
                    continue
                waiter = self._pop_live(share)
                if waiter is None:
                    # Its queue held only dead work (cancelled/expired,
                    # now drained): nothing to spend deficit on here.
                    eligible.discard(tenant)
                    self._advance()
                    continue
                share.deficit -= 1.0
                share.inflight += 1
                share.dispatched += 1
                self._free -= 1
                waiter.future.set_result(None)
                granted = True
                break
            if not granted:
                # A full circuit added one quantum everywhere and nobody
                # crossed a whole unit: every eligible weight is < 1.
                # Jump all of them forward by the same k rounds — the
                # smallest that lets someone spend — preserving the
                # weight-proportional deficit ratios.
                live = [t for t in eligible if self._shares[t].queued()]
                if not live:
                    return
                k = max(
                    1,
                    min(
                        math.ceil(
                            max(0.0, 1.0 - self._shares[t].deficit)
                            / self._shares[t].weight
                        )
                        for t in live
                    ),
                )
                for tenant in live:
                    self._shares[tenant].deficit += k * self._shares[tenant].weight

    # -------------------------------------------------------------- stats

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant gauges for the ``stats`` op and ``/metrics``."""
        out: Dict[str, Dict[str, object]] = {}
        for tenant, share in self._shares.items():
            out[tenant] = {
                "weight": share.weight,
                "queued": share.queued(),
                "inflight": share.inflight,
                "dispatched": share.dispatched,
                "shed": share.shed,
                "expired": share.expired,
            }
        return out


@dataclass
class ServiceStats:
    """Monotonic counters over the service's lifetime (the ``stats`` op)."""

    #: Requests admitted past the queue-depth bound.
    accepted: int = 0
    #: Requests shed *at* admission (queue full / deadline already
    #: expired); disjoint from ``accepted``.
    rejected: int = 0
    #: Accepted requests shed *after* admission because their deadline
    #: expired while queued for an execution slot or while waiting on a
    #: coalesced flight.
    expired: int = 0
    #: Requests that attached to an existing in-flight computation.
    coalesced: int = 0
    #: Clustering executions actually dispatched to the engine.
    executed: int = 0
    #: Executions served below the requested tier (ladder engaged).
    degraded: int = 0
    #: Executions that raised (any error reaching the response).
    failed: int = 0
    #: Transient-failure retries spent by the dispatcher.
    retries: int = 0
    #: Requests refused with :class:`DatasetQuarantinedError` by an open
    #: per-dataset circuit breaker (counted where the check raises).
    quarantined: int = 0
    #: Per-tier execution counts.
    tiers: Dict[str, int] = field(default_factory=dict)

    def count_tier(self, tier: str) -> None:
        self.tiers[tier] = self.tiers.get(tier, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "expired": self.expired,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "degraded": self.degraded,
            "failed": self.failed,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "tiers": dict(self.tiers),
        }
