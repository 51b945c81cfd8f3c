"""The asyncio :class:`ClusteringService` and its wire servers.

One event loop owns the front door: admission, coalescing and breaker
decisions all happen on the loop thread (no locks, no races), while the
actual clustering runs in a small thread pool — the engine's hot loops
are numpy kernels that release the GIL, and parallel runs fan out worker
*processes* from those threads, so ``max_concurrency`` threads saturate
the machine without oversubscribing it.

The request lifecycle::

    admit -> coalesce -> (queue for an execution slot) -> choose tier
          -> execute under supervisor + breaker -> respond

Every stage that can refuse work does so with a structured error
(:class:`~repro.errors.ServiceOverloadError`,
:class:`~repro.errors.DatasetQuarantinedError`,
:class:`~repro.errors.UnknownDatasetError`), and every success records
``{tier, reason}`` in the response metadata — a client can always tell
*what* it got and *why*.

Wire protocol (``repro-dbscan serve``): line-delimited JSON over stdio or
localhost TCP.  One request object per line, one response object per
line; requests are served concurrently, so responses carry the request's
``id`` back and may arrive out of order.  See ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro.core.serialize import to_dict
from repro.errors import (
    AlgorithmError,
    ConfigError,
    DataError,
    DatasetQuarantinedError,
    MemoryBudgetExceeded,
    ParameterError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    TimeoutExceeded,
)
from repro.runtime.deadline import Deadline, as_deadline
from repro.runtime.resilient import TIERS, sampled_dbscan, tier_guarantee
from repro.service.admission import AdmissionController, AdmissionPolicy, CircuitBreaker
from repro.service.queue import FairScheduler, RequestKey, ServiceStats, SingleFlight
from repro.service.registry import DatasetEntry, DatasetRegistry
from repro.utils.log import get_logger

_log = get_logger("service.server")

#: Error codes for the wire protocol's non-service library errors.
_ERROR_CODES = (
    (TimeoutExceeded, "timeout"),
    (MemoryBudgetExceeded, "memory"),
    (ConfigError, "config"),
    (DataError, "data"),
    (ParameterError, "parameter"),
    (AlgorithmError, "algorithm"),
)


def error_payload(exc: BaseException) -> Dict[str, object]:
    """The structured ``error`` object a failed request answers with."""
    if isinstance(exc, ServiceError):
        return exc.as_dict()
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return {"code": code, "message": str(exc)}
    if isinstance(exc, ReproError):
        return {"code": "error", "message": str(exc)}
    return {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}


class ClusteringService:
    """The async front-end over a :class:`DatasetRegistry` of warm engines.

    Parameters
    ----------
    registry:
        The dataset registry to serve (a fresh one by default).
    policy:
        The :class:`AdmissionPolicy` bundle; defaults are sized for tests
        and small deployments — production callers should set at least
        ``max_queue``, ``default_time_budget`` and ``memory_budget_mb``.
    """

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.registry = registry if registry is not None else DatasetRegistry()
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.admission = AdmissionController(self.policy)
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_cooldown
        )
        self.flights = SingleFlight()
        self.stats = ServiceStats()
        self._executor = ThreadPoolExecutor(
            max_workers=self.policy.max_concurrency,
            thread_name_prefix="repro-service",
        )
        self._gate: Optional[asyncio.Semaphore] = None
        self._fair: Optional[FairScheduler] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started = time.monotonic()

    # ----------------------------------------------------------- lifecycle

    def _gate_sem(self) -> asyncio.Semaphore:
        if self._gate is None:
            self._gate = asyncio.Semaphore(self.policy.max_concurrency)
        return self._gate

    def _tenant_limits(self, tenant: str):
        """``(weight, max_queue, max_inflight)`` for the fair scheduler.

        Registry-configured values win; the policy's tenant defaults fill
        the gaps.  Resolved per enqueue, so a live ``tenant`` op changes
        the very next dispatch.
        """
        cfg = self.registry.tenant_config(tenant)
        max_queue = cfg.max_queue if cfg.max_queue is not None else self.policy.tenant_max_queue
        max_inflight = (
            cfg.max_inflight if cfg.max_inflight is not None
            else self.policy.tenant_max_inflight
        )
        return (cfg.weight, max_queue, max_inflight)

    def scheduler(self) -> FairScheduler:
        if self._fair is None:
            self._fair = FairScheduler(
                self.policy.max_concurrency, config=self._tenant_limits
            )
        return self._fair

    def shutdown_event(self) -> asyncio.Event:
        if self._shutdown is None:
            self._shutdown = asyncio.Event()
        return self._shutdown

    async def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """The graceful-restart protocol: stop admitting, finish, flush.

        New requests are refused with ``reason="draining"`` (and an
        honest ``retry_after`` of the drain budget) from the first line
        onward; in-flight requests get up to ``timeout`` seconds
        (``policy.drain_timeout`` by default) to finish; then the
        registry's journal is compacted and fsynced so a restart replays
        a clean snapshot.  Returns a summary for the log / response.
        """
        budget = float(self.policy.drain_timeout if timeout is None else timeout)
        self.admission.start_draining()
        t0 = time.monotonic()
        while self.admission.depth > 0 and time.monotonic() - t0 < budget:
            await asyncio.sleep(0.05)
        abandoned = self.admission.depth
        self.registry.close()  # compacts + closes a persistent store
        self.shutdown_event().set()
        return {
            "drained": abandoned == 0,
            "abandoned": abandoned,
            "elapsed": time.monotonic() - t0,
        }

    def close(self) -> None:
        """Release the executor threads (idempotent)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------- registry ops

    def register(self, name, points=None, path=None, *, tenant="default",
                 on_bad_rows="raise") -> Dict[str, object]:
        """Register a dataset (see :meth:`DatasetRegistry.register`)."""
        return self.registry.register(
            name, points, path, tenant=tenant, on_bad_rows=on_bad_rows
        )

    def unregister(self, name) -> bool:
        return self.registry.unregister(name)

    def datasets(self) -> Dict[str, Dict[str, object]]:
        return self.registry.describe()

    def service_stats(self) -> Dict[str, object]:
        """The ``stats`` endpoint: counters + queue + breaker snapshot."""
        return {
            "uptime": time.monotonic() - self._started,
            "queue_depth": self.admission.depth,
            "queue_limit": self.policy.max_queue,
            "in_flight": self.flights.in_flight(),
            "draining": self.admission.draining,
            "breakers": self.breaker.snapshot(),
            "tenants": self._fair.snapshot() if self._fair is not None else {},
            "datasets": len(self.registry),
            **self.stats.as_dict(),
        }

    # ----------------------------------------------------------- requests

    async def cluster(
        self,
        dataset: str,
        eps: float,
        min_pts: int,
        *,
        rho: Optional[float] = None,
        algorithm: Optional[str] = None,
        workers=None,
        time_budget: Optional[float] = None,
        tier: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: int = 0,
    ) -> Dict[str, object]:
        """Serve one clustering request through the full front-end.

        ``tenant`` defaults to the dataset's owning tenant — a request
        carrying its own tenant label is billed (queued, weighted,
        quota-checked) against that label instead.  ``priority`` orders a
        tenant's own queue (higher first; earliest deadline breaks ties);
        it never lets one tenant outrank another — that is what weights
        are for.

        Returns the response dict: the serialized clustering under
        ``"clustering"`` plus ``tier`` / ``reason`` / ``coalesced`` /
        ``elapsed``.  Raises a structured library error otherwise — the
        wire layer turns those into error responses, in-process callers
        catch them directly.
        """
        entry = self.registry.get(dataset)
        tenant = str(tenant) if tenant is not None else entry.tenant
        try:
            probe = self.breaker.check(entry.name)
        except DatasetQuarantinedError:
            self.stats.quarantined += 1
            raise
        try:
            if tier is not None and tier not in TIERS:
                raise ParameterError(f"unknown tier {tier!r}; choose from {TIERS}")
            requested = tier or (
                "approx" if rho is not None or algorithm == "approx" else "exact"
            )
            budget = (
                float(time_budget)
                if time_budget is not None
                else self.policy.default_time_budget
            )
            deadline = as_deadline(budget)
            tenant_quota = self._tenant_limits(tenant)[1]
            try:
                self.admission.admit(deadline, tenant=tenant, tenant_quota=tenant_quota)
            except ServiceOverloadError:
                self.stats.rejected += 1
                raise
            self.stats.accepted += 1
            try:
                key = RequestKey.build(
                    entry.name, eps, min_pts, rho=rho, workers=workers,
                    algorithm=algorithm
                    or ("approx" if requested != "exact" else "grid"),
                    requested=requested,
                )
                flight, leader = self.flights.acquire(key)
                if not leader:
                    self.stats.coalesced += 1
                    return await self._await_flight(flight, deadline)
                try:
                    response = await self._lead(
                        entry, key, requested, deadline, workers,
                        tenant=tenant, priority=priority,
                    )
                except BaseException as exc:
                    self.flights.resolve_error(key, exc)
                    raise
                self.flights.resolve(key, response)
                return response
            except ServiceOverloadError:
                # Every post-admission overload is a deadline expiry
                # (queued for a slot, or waiting coalesced) or a
                # scheduler-level shed: the request was accepted, so count
                # it apart from admission sheds — accepted and rejected
                # stay a partition.
                self.stats.expired += 1
                raise
            finally:
                self.admission.release(tenant)
        finally:
            # If this request held the half-open probe slot, guarantee it
            # resolves: a no-op when record_success/record_failure already
            # reported, otherwise (shed, invalid tier, budget verdict) the
            # slot is freed so the breaker can probe again rather than
            # quarantining the dataset forever.
            if probe:
                self.breaker.probe_aborted(entry.name)

    async def _await_flight(
        self, flight, deadline: Optional[Deadline]
    ) -> Dict[str, object]:
        """Attach to an in-flight computation, honouring *this* deadline.

        The shared future is shielded: one waiter timing out must not
        cancel the computation the leader and the other waiters still
        want.
        """
        remaining = None
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining is not None:
                remaining = max(remaining, 1e-3)
        try:
            response = await asyncio.wait_for(
                asyncio.shield(flight.future), timeout=remaining
            )
        except asyncio.TimeoutError:
            raise ServiceOverloadError(
                "deadline expired while waiting for the coalesced result",
                reason="deadline-expired",
                queue_depth=self.admission.depth,
                limit=self.policy.max_queue,
            ) from None
        out = dict(response)
        out["coalesced"] = True
        return out

    async def _lead(
        self,
        entry: DatasetEntry,
        key: RequestKey,
        requested: str,
        deadline: Optional[Deadline],
        workers=None,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> Dict[str, object]:
        """Run the single computation every coalesced waiter shares.

        The execution slot comes from the :class:`FairScheduler` when the
        policy says ``fair`` (the default) — deficit round robin across
        tenants, priority-then-earliest-deadline within one — or from the
        plain FIFO semaphore otherwise (the benchmark baseline and a
        paranoia escape hatch).
        """
        if self.policy.fair:
            await self.scheduler().acquire(tenant, deadline, priority)
            try:
                return await self._run_slot(entry, key, requested, deadline, workers)
            finally:
                self.scheduler().release(tenant)
        async with self._gate_sem():
            # The deadline kept running while the request queued for an
            # execution slot (tightest-deadline semantics: admission-time
            # clock).  Shed rather than start work that cannot finish.
            if deadline is not None and deadline.expired():
                raise ServiceOverloadError(
                    "deadline expired while queued for an execution slot",
                    reason="deadline-expired",
                    queue_depth=self.admission.depth,
                    limit=self.policy.max_queue,
                )
            return await self._run_slot(entry, key, requested, deadline, workers)

    async def _run_slot(
        self,
        entry: DatasetEntry,
        key: RequestKey,
        requested: str,
        deadline: Optional[Deadline],
        workers=None,
    ) -> Dict[str, object]:
        """The slot-holding half of :meth:`_lead`: tier choice + execution."""
        loop = asyncio.get_running_loop()
        tier, reason = self.admission.choose_tier(requested)
        job = {
            "eps": key.eps,
            "min_pts": key.min_pts,
            "rho": key.rho,
            "algorithm": key.algorithm,
            # The original object, not the key's hash-safe repr — a
            # ParallelConfig must reach the engine intact.
            "workers": workers,
            "tier": tier,
            "deadline": deadline,
        }
        t0 = time.monotonic()
        try:
            result = await loop.run_in_executor(self._executor, self._execute, entry, job)
        except (TimeoutExceeded, MemoryBudgetExceeded, ParameterError,
                DataError, ServiceError):
            # Budget verdicts and caller mistakes: the infrastructure
            # is healthy, so the breaker stays closed.
            self.stats.failed += 1
            raise
        except Exception as exc:
            self.stats.failed += 1
            failures = self.breaker.record_failure(entry.name)
            if failures >= self.policy.breaker_threshold:
                _log.warning(
                    "service: circuit breaker OPEN for dataset %r after %d "
                    "consecutive failure(s): %s: %s",
                    entry.name, failures, type(exc).__name__, exc,
                )
            raise
        self.breaker.record_success(entry.name)
        entry.count_request()
        # Journal the eps as a warm hint: a restart with --warm-on-recover
        # rebuilds this grid before the first request arrives.
        self.registry.note_warm_eps(entry.name, key.eps)
        self.stats.executed += 1
        self.stats.count_tier(tier)
        if tier != requested:
            self.stats.degraded += 1
            _log.warning(
                "service: request for %r degraded %s -> %s (%s)",
                entry.name, requested, tier, reason,
            )
        result.meta["service"] = {
            "tier": tier,
            "reason": reason,
            "requested": requested,
            "guarantee": tier_guarantee(tier),
        }
        return {
            "dataset": entry.name,
            "tier": tier,
            "reason": reason,
            "coalesced": False,
            "elapsed": time.monotonic() - t0,
            "clustering": to_dict(result),
        }

    def _execute(self, entry: DatasetEntry, job: Dict[str, object]):
        """One engine execution (runs on an executor thread).

        A plain synchronous method on purpose: the fault-injection tests
        monkeypatch it to stage deterministic overload, and subclasses can
        wrap it.  Parallel ``workers`` runs inherit the supervisor
        (on a worker fault: bounded teardown, then the parent finishes the
        unfinished ranges, also when a worker cannot start) through the
        engine's pipeline, so an execution runs exactly once.
        """
        engine = entry.engine
        deadline: Optional[Deadline] = job["deadline"]
        tier = job["tier"]
        rho = job["rho"] if job["rho"] is not None else self.policy.default_rho
        if tier == "sampled":
            return sampled_dbscan(
                engine.points,
                job["eps"],
                job["min_pts"],
                rho=rho,
                sample_size=self.policy.sample_size,
                seed=0,
                deadline=deadline,
            )
        if tier == "approx":
            return engine.approx_dbscan(
                job["eps"],
                job["min_pts"],
                rho=rho,
                deadline=deadline,
                memory_budget_mb=self.policy.memory_budget_mb,
                workers=job["workers"],
            )
        return engine.dbscan(
            job["eps"],
            job["min_pts"],
            algorithm=job["algorithm"] or "grid",
            deadline=deadline,
            memory_budget_mb=self.policy.memory_budget_mb,
            workers=job["workers"],
        )

    # --------------------------------------------------------------- wire

    @staticmethod
    def _require(request: Dict[str, object], *fields: str) -> None:
        """Reject a wire request that lacks required fields.

        Explicit validation, not a blanket ``except KeyError`` around the
        whole operation — a ``KeyError`` escaping library code is an
        internal bug and must surface as one, not masquerade as a caller
        mistake.
        """
        missing = [name for name in fields if name not in request]
        if missing:
            raise ParameterError(
                "missing required field(s): " + ", ".join(missing)
            )

    async def handle(self, request: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Serve one wire-protocol request object; None answers ``shutdown``."""
        rid = request.get("id")
        op = request.get("op")
        try:
            if op == "cluster":
                self._require(request, "dataset", "eps", "min_pts")
                payload = await self.cluster(
                    request["dataset"],
                    request["eps"],
                    request["min_pts"],
                    rho=request.get("rho"),
                    algorithm=request.get("algorithm"),
                    workers=request.get("workers"),
                    time_budget=request.get("time_budget"),
                    tier=request.get("tier"),
                    tenant=request.get("tenant"),
                    priority=int(request.get("priority", 0)),
                )
            elif op == "register":
                self._require(request, "name")
                payload = self.register(
                    request["name"],
                    points=request.get("points"),
                    path=request.get("path"),
                    tenant=request.get("tenant", "default"),
                    on_bad_rows=request.get("on_bad_rows", "raise"),
                )
            elif op == "unregister":
                self._require(request, "name")
                payload = {"removed": self.unregister(request["name"])}
            elif op == "datasets":
                payload = self.datasets()
            elif op == "stats":
                payload = self.service_stats()
            elif op == "ping":
                payload = {"pong": True}
            elif op == "tenant":
                self._require(request, "name")
                cfg = self.registry.configure_tenant(
                    request["name"],
                    weight=request.get("weight"),
                    quota_mb=request.get("quota_mb"),
                    max_queue=request.get("max_queue"),
                    max_inflight=request.get("max_inflight"),
                )
                payload = {"tenant": str(request["name"]), **cfg.as_dict()}
            elif op == "drain":
                payload = await self.drain(request.get("timeout"))
            elif op == "shutdown":
                self.shutdown_event().set()
                return None
            else:
                raise ParameterError(f"unknown op {op!r}")
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - the wire must answer
            return {"id": rid, "ok": False, "error": error_payload(exc)}
        return {"id": rid, "ok": True, "result": payload}

    async def _serve_stream(
        self,
        reader: asyncio.StreamReader,
        write_line,
    ) -> None:
        """Shared line loop: requests run concurrently, responses serialise.

        A malformed line answers with a ``parameter`` error instead of
        killing the connection; EOF or a ``shutdown`` op drains the
        in-flight tasks and returns.
        """
        lock = asyncio.Lock()
        tasks: set = set()
        stop = False

        async def serve_one(line: bytes) -> None:
            nonlocal stop
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                response = {
                    "id": None,
                    "ok": False,
                    "error": {"code": "parameter", "message": f"bad request line: {exc}"},
                }
            else:
                response = await self.handle(request)
                if response is None:  # shutdown
                    stop = True
                    response = {"id": request.get("id"), "ok": True,
                                "result": {"stopping": True}}
            async with lock:
                await write_line(json.dumps(response) + "\n")

        while not stop:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.ensure_future(serve_one(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start the localhost TCP server; returns the ``asyncio`` server.

        The caller owns the server object (``server.sockets[0]`` has the
        bound port; ``async with server: await server.serve_forever()``
        runs it).  A ``shutdown`` op sets :meth:`shutdown_event` — the CLI
        waits on it and closes the server.
        """

        async def on_connection(reader, writer):
            async def write_line(text: str) -> None:
                writer.write(text.encode())
                await writer.drain()

            try:
                await self._serve_stream(reader, write_line)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

        return await asyncio.start_server(on_connection, host, port)

    async def serve_stdio(self, stdin=None, stdout=None) -> None:
        """Serve line-delimited JSON over stdio until EOF or ``shutdown``."""
        loop = asyncio.get_running_loop()
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), stdin
        )

        async def write_line(text: str) -> None:
            stdout.write(text)
            stdout.flush()

        await self._serve_stream(reader, write_line)
