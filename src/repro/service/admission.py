"""Admission control, the degradation ladder, and the circuit breaker.

Three mechanisms keep the service responsive under overload, all of them
*structured* — every shed, degrade and quarantine decision is visible in
the response (``{tier, reason}`` metadata or a typed error), never an
unexplained hang:

* **bounded admission** — at most ``max_queue`` requests may be
  outstanding; request ``max_queue + 1`` is rejected immediately with a
  :class:`~repro.errors.ServiceOverloadError` carrying a ``retry_after``
  hint.  Rejecting early is the whole point: an unbounded queue converts
  overload into unbounded memory growth and unbounded latency, and every
  queued request would miss its deadline anyway.
* **the degradation ladder** — queue pressure (depth / ``max_queue``)
  and memory pressure (process RSS against the service's
  :class:`~repro.runtime.MemoryBudget`) drive accepted requests down the
  cascade justified by the paper's Sandwich Theorem: exact ->
  rho-approximate (Theorem 4 bounds the error) -> DBSCAN++-style sampled
  cores (cost bounded by the sample size, so the bottom tier always
  returns).  The tier taken and the pressure reading that forced it are
  recorded in the response metadata.
* **the circuit breaker** — a dataset whose requests keep failing for
  *infrastructure* reasons (poisoned worker pools, crashing shards) is
  quarantined for a cooldown so it cannot keep burning executions that
  other tenants need; after the cooldown a single probe request is let
  through (half-open) and its outcome closes or re-opens the breaker.  A
  probe that exits without a verdict (shed, invalid parameters, budget
  expiry) releases the probe slot so the breaker can probe again instead
  of quarantining the dataset forever.
  Cooperative budget verdicts (:class:`~repro.errors.TimeoutExceeded`,
  :class:`~repro.errors.MemoryBudgetExceeded`) and caller mistakes
  (:class:`~repro.errors.ParameterError`) never trip it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import (
    DatasetQuarantinedError,
    ParameterError,
    ServiceOverloadError,
)
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget, current_rss

#: RSS fraction of the memory budget above which the ladder jumps straight
#: to the sampled tier (mirrors the cache's high-water shedding).
_MEMORY_HIGH_WATER = 0.9


@dataclass(frozen=True)
class AdmissionPolicy:
    """Every service knob in one frozen bundle.

    Parameters
    ----------
    max_queue:
        Maximum outstanding requests (in flight + waiting); the bound the
        load-shedder enforces.
    max_concurrency:
        Engine executions running at once (executor threads).  Keep small:
        each execution may itself fan out worker processes.
    default_time_budget:
        Per-request deadline in seconds when the request carries none
        (``None`` = unbounded requests allowed).
    degrade_pressure / sample_pressure:
        Queue-pressure thresholds (fractions of ``max_queue``) at which
        accepted *exact* requests degrade to the rho-approximate tier and
        any request degrades to the sampled tier.
    default_rho:
        Approximation constant used when the ladder degrades a request
        that did not specify one.
    sample_size:
        Point budget of the sampled tier
        (:func:`repro.runtime.resilient.sampled_dbscan`).
    memory_budget_mb:
        Service-wide RSS budget driving the memory leg of the ladder and
        handed to every engine execution.
    breaker_threshold / breaker_cooldown:
        Consecutive infrastructure failures that open a dataset's circuit
        breaker, and the seconds before a half-open probe is allowed.
    """

    max_queue: int = 32
    max_concurrency: int = 2
    default_time_budget: Optional[float] = None
    degrade_pressure: float = 0.5
    sample_pressure: float = 0.85
    default_rho: float = 0.001
    sample_size: int = 2000
    memory_budget_mb: Optional[float] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: Weighted fair queueing across tenants (deficit round robin +
    #: per-tenant deadline/priority ordering); ``False`` restores the
    #: PR 6 first-come-first-served semaphore (the benchmark baseline).
    fair: bool = True
    #: Default per-tenant bound on *outstanding* (queued + running)
    #: requests; ``None`` leaves only ``max_queue``.  Per-tenant
    #: overrides come from the registry's :class:`TenantConfig`.
    tenant_max_queue: Optional[int] = None
    #: Default per-tenant bound on concurrently *executing* requests;
    #: ``None`` bounds only by ``max_concurrency``.
    tenant_max_inflight: Optional[int] = None
    #: Seconds a draining service waits for in-flight work before the
    #: executor is torn down regardless (the SIGTERM drain budget).
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if int(self.max_queue) < 1:
            raise ParameterError(f"max_queue must be >= 1; got {self.max_queue}")
        if int(self.max_concurrency) < 1:
            raise ParameterError(
                f"max_concurrency must be >= 1; got {self.max_concurrency}"
            )
        if not 0.0 < float(self.degrade_pressure) <= 1.0:
            raise ParameterError(
                f"degrade_pressure must be in (0, 1]; got {self.degrade_pressure}"
            )
        if not float(self.degrade_pressure) <= float(self.sample_pressure) <= 1.0:
            raise ParameterError(
                "sample_pressure must satisfy degrade_pressure <= sample_pressure "
                f"<= 1; got {self.sample_pressure}"
            )
        if int(self.breaker_threshold) < 1:
            raise ParameterError(
                f"breaker_threshold must be >= 1; got {self.breaker_threshold}"
            )
        for name in ("tenant_max_queue", "tenant_max_inflight"):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise ParameterError(f"{name} must be >= 1 (or None); got {value}")
        if not float(self.drain_timeout) >= 0:
            raise ParameterError(
                f"drain_timeout must be >= 0; got {self.drain_timeout}"
            )


class AdmissionController:
    """Bounded outstanding-request accounting plus the tier ladder."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._depth = 0
        self._tenant_depth: Dict[str, int] = {}
        self._draining = False
        self.memory = (
            MemoryBudget(policy.memory_budget_mb)
            if policy.memory_budget_mb is not None
            else None
        )

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def tenant_depth(self, tenant: str) -> int:
        """Outstanding requests of one tenant."""
        with self._lock:
            return self._tenant_depth.get(str(tenant), 0)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def start_draining(self) -> None:
        """Refuse all new work from now on (the drain protocol's step 1)."""
        with self._lock:
            self._draining = True

    def pressure(self) -> float:
        """Outstanding requests as a fraction of the admission bound."""
        with self._lock:
            return self._depth / float(self.policy.max_queue)

    def admit(
        self,
        deadline: Optional[Deadline] = None,
        tenant: str = "default",
        tenant_quota: Optional[int] = None,
    ) -> None:
        """Count one request in, or shed it with a structured error.

        Sheds when the queue is at its bound, when the *tenant's* share
        of it is at its quota (``tenant_quota`` falls back to the
        policy's ``tenant_max_queue``), when the request's deadline is
        *already* expired — accepting work that cannot possibly answer in
        time only steals capacity from work that can — and when the
        service is draining for shutdown.
        """
        tenant = str(tenant)
        if deadline is not None and deadline.expired():
            raise ServiceOverloadError(
                "request deadline expired before admission",
                reason="deadline-expired",
                queue_depth=self.depth,
                limit=self.policy.max_queue,
            )
        quota = tenant_quota if tenant_quota is not None else self.policy.tenant_max_queue
        with self._lock:
            if self._draining:
                raise ServiceOverloadError(
                    "service is draining for shutdown",
                    reason="draining",
                    queue_depth=self._depth,
                    limit=self.policy.max_queue,
                    retry_after=float(self.policy.drain_timeout),
                )
            if self._depth >= self.policy.max_queue:
                raise ServiceOverloadError(
                    f"queue is full ({self._depth}/{self.policy.max_queue} "
                    "requests outstanding)",
                    reason="queue-full",
                    queue_depth=self._depth,
                    limit=self.policy.max_queue,
                    # Honest hint: one execution slot's worth of patience.
                    retry_after=1.0,
                )
            held = self._tenant_depth.get(tenant, 0)
            if quota is not None and held >= int(quota):
                raise ServiceOverloadError(
                    f"tenant {tenant!r} already has {held} request(s) "
                    f"outstanding (quota {int(quota)})",
                    reason="tenant-quota",
                    queue_depth=self._depth,
                    limit=int(quota),
                    retry_after=1.0,
                )
            self._depth += 1
            self._tenant_depth[tenant] = held + 1

    def release(self, tenant: str = "default") -> None:
        tenant = str(tenant)
        with self._lock:
            if self._depth > 0:
                self._depth -= 1
            held = self._tenant_depth.get(tenant, 0)
            if held <= 1:
                self._tenant_depth.pop(tenant, None)
            else:
                self._tenant_depth[tenant] = held - 1

    # ------------------------------------------------------------- ladder

    def memory_pressure(self) -> Optional[float]:
        """Process RSS as a fraction of the service budget (None = no budget)."""
        if self.memory is None or self.memory.limit_bytes is None:
            return None
        return current_rss() / float(self.memory.limit_bytes)

    def choose_tier(self, requested: str) -> Tuple[str, str]:
        """The ``(tier, reason)`` an execution dispatching *now* should use.

        ``requested`` is the tier the request asked for (``"exact"`` or
        ``"approx"``); the ladder only ever moves *down* from it.  The
        returned reason is the human- and machine-readable justification
        recorded in the response metadata.
        """
        mem = self.memory_pressure()
        if mem is not None and mem >= _MEMORY_HIGH_WATER:
            return "sampled", (
                f"memory-pressure: rss at {mem:.0%} of the "
                f"{self.policy.memory_budget_mb:g} MB budget"
            )
        pressure = self.pressure()
        if pressure >= self.policy.sample_pressure:
            return "sampled", (
                f"queue-pressure {pressure:.2f} >= {self.policy.sample_pressure:g}"
            )
        if requested == "exact" and pressure >= self.policy.degrade_pressure:
            return "approx", (
                f"queue-pressure {pressure:.2f} >= {self.policy.degrade_pressure:g}"
            )
        return requested, "requested"


@dataclass
class _BreakerState:
    failures: int = 0
    opened_at: float = 0.0
    probing: bool = False


class CircuitBreaker:
    """Per-dataset quarantine after repeated infrastructure failures."""

    def __init__(self, threshold: int = 3, cooldown: float = 30.0) -> None:
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._lock = threading.Lock()
        self._state: Dict[str, _BreakerState] = {}

    def check(self, name: str) -> bool:
        """Gate a request on ``name``'s breaker.

        Closed: passes (returns ``False``).  Open within the cooldown:
        raises :class:`DatasetQuarantinedError` with the remaining
        cooldown.  Open past the cooldown: lets exactly one probe through
        (half-open, returns ``True``) and quarantines the rest until the
        probe reports back.

        The caller of a ``True`` return owns the probe slot and must
        resolve it on *every* exit path — :meth:`record_success`,
        :meth:`record_failure`, or :meth:`probe_aborted` when the probe
        never reached the engine — or the breaker stays half-open forever
        and quarantines every later request.
        """
        with self._lock:
            state = self._state.get(str(name))
            if state is None or state.failures < self.threshold:
                return False
            remaining = self.cooldown - (time.monotonic() - state.opened_at)
            if remaining > 0:
                raise DatasetQuarantinedError(str(name), state.failures, remaining)
            if state.probing:
                raise DatasetQuarantinedError(str(name), state.failures, self.cooldown)
            state.probing = True
            return True

    def record_failure(self, name: str) -> int:
        """Count one infrastructure failure; returns the consecutive total."""
        with self._lock:
            state = self._state.setdefault(str(name), _BreakerState())
            state.failures += 1
            state.probing = False
            if state.failures >= self.threshold:
                state.opened_at = time.monotonic()
            return state.failures

    def record_success(self, name: str) -> None:
        """A request (or half-open probe) succeeded: close the breaker."""
        with self._lock:
            self._state.pop(str(name), None)

    def probe_aborted(self, name: str) -> None:
        """The half-open probe exited without an infrastructure verdict.

        A probe shed by admission, rejected by parameter validation, or
        stopped by a cooperative budget verdict (``TimeoutExceeded`` /
        ``MemoryBudgetExceeded``) says nothing about whether the
        infrastructure recovered, so it neither closes the breaker nor
        counts as a failure — it just frees the probe slot so the next
        request can probe.  A no-op when the probe already reported
        through :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            state = self._state.get(str(name))
            if state is not None:
                state.probing = False

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Open/closed state per dataset with a failure count (``stats`` op)."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name, state in self._state.items():
                open_ = state.failures >= self.threshold
                out[name] = {
                    "failures": state.failures,
                    "open": open_,
                    "retry_after": (
                        max(0.0, self.cooldown - (time.monotonic() - state.opened_at))
                        if open_
                        else 0.0
                    ),
                }
            return out
