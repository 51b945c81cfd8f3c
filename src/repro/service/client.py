"""Clients for :class:`~repro.service.ClusteringService`.

The service is an asyncio object; most of this repo's callers (tests,
benchmarks, notebooks) are synchronous.  :class:`ServiceClient` bridges
the two: it owns a background thread running a private event loop, hosts
one service on it, and exposes blocking methods that submit coroutines
via :func:`asyncio.run_coroutine_threadsafe`.

Because every call goes through the *real* service — admission,
coalescing, degradation, breaker — the client is also the fixture the
robustness tests drive: :meth:`cluster_many` submits a batch of requests
concurrently (all landing on the loop before any completes), which is
exactly the shape that exercises single-flight coalescing and queue-full
shedding deterministically.

:class:`TcpServiceClient` speaks the wire protocol instead: line-delimited
JSON over a localhost TCP connection to a ``repro-dbscan serve --port``
process.  It is what the restart/fairness oracles use — the server is a
*separate process* there, so ``kill -9`` means what it says.

Both clients can honour the service's overload verdicts: when
``retries > 0``, a :class:`~repro.errors.ServiceOverloadError` carrying a
``retry_after`` hint is retried after sleeping that long (bounded,
jittered).  Off by default — a retry loop the caller did not ask for
turns load shedding back into queueing.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

from repro.core.serialize import from_dict
from repro.errors import ServiceOverloadError
from repro.service.server import ClusteringService

#: Longest single ``retry_after`` nap either client will take (seconds).
MAX_RETRY_SLEEP = 5.0


def _retry_sleep(retry_after: Optional[float]) -> float:
    """Bounded, jittered sleep for one overload retry.

    The jitter (up to +25%) keeps a burst of shed clients from
    re-arriving in lockstep and being shed again as one thundering herd.
    """
    base = min(float(retry_after or 0.1), MAX_RETRY_SLEEP)
    return base * (1.0 + 0.25 * random.random())


class ServiceClient:
    """Blocking facade over a :class:`ClusteringService` on a private loop.

    Parameters
    ----------
    service:
        The service to host; a fresh one (built from ``**kwargs``:
        ``registry=``, ``policy=``) when omitted.  The client owns the
        loop and, on :meth:`close`, the service's executor.
    retries:
        Extra attempts for a :meth:`cluster` call shed with a
        ``retry_after`` hint (0 = never retry, the default).  Each retry
        sleeps the hinted time (bounded by ``MAX_RETRY_SLEEP``, +25%
        jitter).  Sheds without a hint (expired deadlines) never retry —
        the verdict is final, not transient.

    Use as a context manager::

        with ServiceClient(policy=AdmissionPolicy(max_queue=8)) as client:
            client.register("toy", points)
            result = client.cluster("toy", eps=0.05, min_pts=10)
            result.meta["service"]["tier"]   # "exact" | "approx" | "sampled"
    """

    def __init__(
        self,
        service: Optional[ClusteringService] = None,
        *,
        retries: int = 0,
        **kwargs,
    ) -> None:
        if int(retries) < 0:
            raise ValueError(f"retries must be >= 0; got {retries}")
        self.retries = int(retries)
        self.service = service if service is not None else ClusteringService(**kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-client", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # ------------------------------------------------------------ plumbing

    def submit(self, coro) -> Future:
        """Schedule a coroutine on the service loop; returns its Future."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def _call(self, coro, timeout: Optional[float] = None):
        return self.submit(coro).result(timeout)

    def close(self) -> None:
        """Stop the loop, join the thread, release the service executor."""
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_running():  # pragma: no branch
            self._loop.close()
        self.service.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- dataset

    def register(self, name, points=None, path=None, *, tenant="default",
                 on_bad_rows="raise") -> Dict[str, object]:
        # The registry is thread-safe on its own; no loop hop needed.
        return self.service.register(
            name, points=points, path=path, tenant=tenant, on_bad_rows=on_bad_rows
        )

    def unregister(self, name) -> bool:
        return self.service.unregister(name)

    def datasets(self) -> Dict[str, Dict[str, object]]:
        return self.service.datasets()

    def stats(self) -> Dict[str, object]:
        return self.service.service_stats()

    # ------------------------------------------------------------ requests

    def cluster(
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
        timeout: Optional[float] = None,
    ):
        """One blocking cluster request; returns a ``Clustering``.

        The response's ``{tier, reason, coalesced}`` metadata is available
        as ``result.meta["service"]``.  Structured service errors
        (:class:`~repro.errors.ServiceOverloadError`, ...) propagate as
        exceptions, exactly as the service raised them — unless the
        client was built with ``retries > 0`` and the error carries a
        ``retry_after`` hint, in which case the request is re-submitted
        after the hinted sleep, up to the retry budget.
        """
        attempts = 0
        while True:
            try:
                response = self._call(
                    self.service.cluster(
                        dataset, eps, min_pts, rho=rho, algorithm=algorithm,
                        workers=workers, time_budget=time_budget,
                        tier=tier, tenant=tenant, priority=priority,
                    ),
                    timeout=timeout,
                )
            except ServiceOverloadError as exc:
                if attempts >= self.retries or exc.retry_after is None:
                    raise
                attempts += 1
                time.sleep(_retry_sleep(exc.retry_after))
                continue
            return self._to_clustering(response)

    def cluster_many(
        self,
        requests: Sequence[Dict[str, object]],
        *,
        timeout: Optional[float] = None,
        return_exceptions: bool = True,
    ) -> List[object]:
        """Submit many requests concurrently; collect results in order.

        Every request dict takes the :meth:`cluster` keywords plus the
        positional trio as ``dataset`` / ``eps`` / ``min_pts``.  Every
        task is created in one loop callback, so all requests land on
        the service before the first one can complete and identical
        requests genuinely race — the coalescing and shedding paths, not
        the sequential cache, serve the duplicates.  (Submitting them
        one cross-thread hop at a time would let a fast leader finish
        and clear the single-flight window mid-batch, turning
        exactly-once into a race.)  ``timeout`` bounds the whole batch.
        With ``return_exceptions`` (the default) failures come back
        in-slot as exception objects instead of aborting the batch.
        """
        coros = [
            self.service.cluster(
                req["dataset"], req["eps"], req["min_pts"],
                rho=req.get("rho"),
                algorithm=req.get("algorithm"),
                workers=req.get("workers"),
                time_budget=req.get("time_budget"),
                tier=req.get("tier"),
                tenant=req.get("tenant"),
                priority=req.get("priority", 0),
            )
            for req in requests
        ]

        async def run_batch():
            tasks = [asyncio.ensure_future(coro) for coro in coros]
            return await asyncio.gather(*tasks, return_exceptions=True)

        out: List[object] = []
        for result in self._call(run_batch(), timeout=timeout):
            if isinstance(result, BaseException):
                if not return_exceptions:
                    raise result
                out.append(result)
            else:
                out.append(self._to_clustering(result))
        return out

    @staticmethod
    def _to_clustering(response: Dict[str, object]):
        result = from_dict(response["clustering"])
        # Coalesced waiters share the leader's response payload, and
        # from_dict reuses its nested meta dict — copy before annotating
        # this caller's view (coalesced-ness is per request, not per
        # computation).
        meta = dict(result.meta)
        service = dict(meta.get("service") or {})
        service["coalesced"] = response.get("coalesced", False)
        service["elapsed"] = response.get("elapsed")
        meta["service"] = service
        result.meta = meta
        return result


class WireError(RuntimeError):
    """A wire error response with no richer local type (``.payload``)."""

    def __init__(self, payload: Dict[str, object]) -> None:
        super().__init__(f"{payload.get('code')}: {payload.get('message')}")
        self.payload = dict(payload)


def _raise_wire_error(payload: Dict[str, object]) -> None:
    """Reconstruct the structured exception a wire error response encodes."""
    code = payload.get("code")
    message = str(payload.get("message", ""))
    if code == "overload":
        raise ServiceOverloadError(
            message,
            reason=str(payload.get("reason", "queue-full")),
            queue_depth=int(payload.get("queue_depth", 0)),
            limit=int(payload.get("limit", 0)),
            retry_after=payload.get("retry_after"),
        )
    raise WireError(payload)


#: Wire ops safe to replay after a dropped connection: each either reads
#: state or (register / tenant) writes an absolute record whose replay
#: converges to the same state.  ``shutdown`` / ``drain`` are absent on
#: purpose — replaying one against a *restarted* server would kill it.
IDEMPOTENT_OPS = frozenset(
    {"cluster", "stats", "datasets", "ping", "register", "unregister", "tenant"}
)


class TcpServiceClient:
    """Blocking line-delimited-JSON client for ``repro-dbscan serve --port``.

    One socket, sequential request/response (the protocol allows
    out-of-order responses, but a synchronous client never has more than
    one request outstanding, so reading one line per request is exact).

    Parameters
    ----------
    host, port:
        Where the server listens (the CLI prints ``serving on H:P``).
    retries:
        Like :class:`ServiceClient`: extra attempts for requests shed
        with a ``retry_after`` hint.  Off by default.
    timeout:
        Socket timeout per response read (None = block forever).

    A connection that dies mid-request (``ConnectionResetError`` — the
    server was killed or restarted) is re-dialled **once**, and only for
    :data:`IDEMPOTENT_OPS`; a non-idempotent request surfaces the error
    to the caller, who alone knows whether replaying it is safe.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retries: int = 0,
        timeout: Optional[float] = 30.0,
    ) -> None:
        if int(retries) < 0:
            raise ValueError(f"retries must be >= 0; got {retries}")
        self.host = str(host)
        self.port = int(port)
        self.retries = int(retries)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._next_id = 0
        self._lock = threading.Lock()

    # ---------------------------------------------------------- connection

    def connect(self) -> "TcpServiceClient":
        with self._lock:
            self._connect_locked()
        return self

    def _connect_locked(self) -> None:
        self._close_locked()
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock = sock
        self._fh = sock.makefile("rwb")

    def _close_locked(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "TcpServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ requests

    def _roundtrip_locked(self, payload: Dict[str, object]) -> Dict[str, object]:
        if self._fh is None:
            self._connect_locked()
        self._fh.write((json.dumps(payload) + "\n").encode())
        self._fh.flush()
        line = self._fh.readline()
        if not line:
            # EOF mid-response behaves like a reset: the server is gone.
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    def request(self, op: str, **fields) -> Dict[str, object]:
        """One wire request; returns the ``result`` object or raises.

        Overload errors become :class:`ServiceOverloadError` (retried per
        the client's budget when hinted); every other error response
        raises :class:`WireError` carrying the full payload.
        """
        attempts = 0
        while True:
            with self._lock:
                self._next_id += 1
                payload = {"id": self._next_id, "op": op, **fields}
                try:
                    response = self._roundtrip_locked(payload)
                except (ConnectionResetError, BrokenPipeError):
                    if op not in IDEMPOTENT_OPS:
                        self._close_locked()
                        raise
                    # One reconnect, one replay; a second reset is real.
                    self._connect_locked()
                    response = self._roundtrip_locked(payload)
            if response.get("ok"):
                return response.get("result", {})
            try:
                _raise_wire_error(response.get("error") or {})
            except ServiceOverloadError as exc:
                if attempts >= self.retries or exc.retry_after is None:
                    raise
                attempts += 1
                time.sleep(_retry_sleep(exc.retry_after))

    # Convenience wrappers mirroring ServiceClient's surface.

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def stats(self) -> Dict[str, object]:
        return self.request("stats")

    def datasets(self) -> Dict[str, Dict[str, object]]:
        return self.request("datasets")

    def register(self, name, *, path, tenant="default", on_bad_rows="raise"):
        return self.request(
            "register", name=name, path=path, tenant=tenant, on_bad_rows=on_bad_rows
        )

    def configure_tenant(self, name, **fields) -> Dict[str, object]:
        return self.request("tenant", name=name, **fields)

    def shutdown(self) -> None:
        """Ask the server to stop (not retried, not replayed)."""
        try:
            self.request("shutdown")
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    def cluster_raw(self, dataset, eps, min_pts, **fields) -> Dict[str, object]:
        """The raw response dict (``clustering`` still serialized)."""
        return self.request(
            "cluster", dataset=dataset, eps=eps, min_pts=min_pts, **fields
        )

    def cluster(self, dataset, eps, min_pts, **fields):
        """A deserialized ``Clustering``, like :meth:`ServiceClient.cluster`."""
        return ServiceClient._to_clustering(self.cluster_raw(dataset, eps, min_pts, **fields))
