"""Prometheus text exposition and the ``/metrics`` + ``/healthz`` endpoints.

Operating the service needs two read paths that do not compete with the
request queue: a scrapeable gauge/counter snapshot (``GET /metrics``, the
`Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_) and a
liveness/readiness probe (``GET /healthz``).  Both are served by a
deliberately tiny HTTP/1.0-style responder on the service's own event
loop — rendering a snapshot is microseconds of dict walking, so it never
needs an executor thread, and depending on a web framework for two
``GET`` routes would be the heaviest dependency in the repository.

``/healthz`` answers ``200 {"ok": true}`` while the service accepts
work and ``503 {"ok": false, "draining": true}`` once the drain protocol
has started — exactly what a load balancer's readiness check wants: the
process is alive (it answered) but should receive no new traffic.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Tuple

#: Every metric is prefixed so scrapes from mixed fleets stay groupable.
PREFIX = "repro_service"

#: ``ServiceStats`` counters exported as ``..._requests_total{outcome=}``.
_OUTCOMES = (
    "accepted",
    "rejected",
    "expired",
    "coalesced",
    "executed",
    "degraded",
    "failed",
    "quarantined",
)

#: Per-tenant fairness gauges/counters from ``FairScheduler.snapshot()``.
_TENANT_GAUGES = ("weight", "queued", "inflight")
_TENANT_COUNTERS = ("dispatched", "shed", "expired")


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _line(name: str, value, labels: Dict[str, str] = None) -> str:
    label_txt = ""
    if labels:
        inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
        label_txt = "{" + inner + "}"
    if isinstance(value, bool):
        value = int(value)
    return f"{PREFIX}_{name}{label_txt} {float(value):g}"


def render_metrics(stats: Dict[str, object]) -> str:
    """Render one ``service_stats()`` snapshot as Prometheus text.

    Takes the already-built stats dict (not the service) so tests can
    render golden snapshots without standing a service up.
    """
    out: List[str] = []

    def head(name: str, kind: str, help_: str) -> None:
        out.append(f"# HELP {PREFIX}_{name} {help_}")
        out.append(f"# TYPE {PREFIX}_{name} {kind}")

    head("uptime_seconds", "gauge", "Seconds since the service started.")
    out.append(_line("uptime_seconds", stats.get("uptime", 0.0)))
    head("queue_depth", "gauge", "Outstanding admitted requests.")
    out.append(_line("queue_depth", stats.get("queue_depth", 0)))
    head("queue_limit", "gauge", "Admission bound (max_queue).")
    out.append(_line("queue_limit", stats.get("queue_limit", 0)))
    head("in_flight", "gauge", "Coalesced computations currently executing.")
    out.append(_line("in_flight", stats.get("in_flight", 0)))
    head("draining", "gauge", "1 while the drain protocol refuses new work.")
    out.append(_line("draining", bool(stats.get("draining", False))))
    head("datasets", "gauge", "Datasets in the registry catalog.")
    out.append(_line("datasets", stats.get("datasets", 0)))

    head("requests_total", "counter", "Requests by lifecycle outcome.")
    for outcome in _OUTCOMES:
        out.append(_line("requests_total", stats.get(outcome, 0),
                         {"outcome": outcome}))
    head("tier_executions_total", "counter", "Executions by served tier.")
    for tier, count in sorted((stats.get("tiers") or {}).items()):
        out.append(_line("tier_executions_total", count, {"tier": tier}))

    tenants = stats.get("tenants") or {}
    head("tenant_weight", "gauge", "Configured fair-queueing weight.")
    head("tenant_queued", "gauge", "Requests waiting in the tenant queue.")
    head("tenant_inflight", "gauge", "Execution slots the tenant holds.")
    head("tenant_dispatched_total", "counter",
         "Execution slots granted to the tenant.")
    head("tenant_shed_total", "counter",
         "Tenant requests shed at enqueue (quota / hopeless deadline).")
    head("tenant_expired_total", "counter",
         "Tenant requests whose deadline expired while queued.")
    for tenant, share in sorted(tenants.items()):
        labels = {"tenant": tenant}
        for gauge in _TENANT_GAUGES:
            out.append(_line(f"tenant_{gauge}", share.get(gauge, 0), labels))
        for counter in _TENANT_COUNTERS:
            out.append(_line(f"tenant_{counter}_total", share.get(counter, 0),
                             labels))

    breakers = stats.get("breakers") or {}
    head("breaker_open", "gauge", "1 while the dataset's breaker is open.")
    for dataset, state in sorted(breakers.items()):
        out.append(_line("breaker_open", bool(state.get("open", False)),
                         {"dataset": dataset}))
    return "\n".join(out) + "\n"


def _response(status: int, reason: str, body: str, content_type: str) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


def _route(service, method: str, path: str) -> Tuple[int, str, str, str]:
    """``(status, reason, body, content_type)`` for one request line."""
    path = path.split("?", 1)[0]
    if method != "GET":
        return (405, "Method Not Allowed", "method not allowed\n", "text/plain")
    if path == "/metrics":
        body = render_metrics(service.service_stats())
        return (200, "OK", body, "text/plain; version=0.0.4; charset=utf-8")
    if path == "/healthz":
        draining = service.admission.draining
        body = json.dumps({"ok": not draining, "draining": draining}) + "\n"
        if draining:
            return (503, "Service Unavailable", body, "application/json")
        return (200, "OK", body, "application/json")
    return (404, "Not Found", "not found\n", "text/plain")


async def serve_metrics(service, host: str = "127.0.0.1", port: int = 0):
    """Start the observability HTTP server; returns the asyncio server.

    The caller owns it the same way it owns ``serve_tcp``'s server:
    ``server.sockets[0].getsockname()`` has the bound port, closing it
    stops the endpoint.  Requests are strictly read-only — nothing here
    can mutate service state, so exposing it more widely than the wire
    port is safe (though the default bind is still localhost).
    """

    async def on_connection(reader: asyncio.StreamReader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1", "replace").split()
            # Drain headers; HTTP/1.0 + Connection: close means we never
            # need their contents.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            if len(parts) < 2:
                writer.write(_response(400, "Bad Request", "bad request\n",
                                       "text/plain"))
            else:
                writer.write(_response(*_route(service, parts[0], parts[1])))
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    return await asyncio.start_server(on_connection, host, port)
