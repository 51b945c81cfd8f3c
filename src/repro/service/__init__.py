"""Clustering-as-a-service: an async front-end over the warm engine.

The ROADMAP's north star is serving rho-approximate DBSCAN (Gan & Tao,
SIGMOD 2015) to heavy multi-tenant traffic: one process, one warm
:class:`~repro.engine.ClusteringEngine` per dataset, many concurrent
callers.  The pieces built by the earlier PRs — cooperative
:class:`~repro.runtime.Deadline` / :class:`~repro.runtime.MemoryBudget`
guards, the worker supervisor of :mod:`repro.parallel`, the
fingerprint-keyed :class:`~repro.engine.cache.StructureCache` — keep one
*run* honest; this package keeps the *system* honest when requests arrive
faster than they can be served:

* :mod:`~repro.service.registry` — named datasets (arrays or CSV paths),
  one engine each, per-tenant structure-cache byte quotas and persisted
  :class:`TenantConfig` (fair-queueing weight + quotas);
* :mod:`~repro.service.store` — pluggable catalog persistence: the
  ephemeral :class:`MemoryStore` and the crash-safe :class:`FileStore`
  (atomic snapshot + CRC-framed append-only journal + content-addressed
  payload files), so a restart recovers the catalog byte-identically;
* :mod:`~repro.service.queue` — single-flight request coalescing plus
  the :class:`FairScheduler`: deficit-round-robin execution slots across
  tenants, priority-then-earliest-deadline within one;
* :mod:`~repro.service.admission` — bounded admission (global and
  per-tenant), queue-pressure accounting, the degradation ladder (exact
  -> rho-approximate -> DBSCAN++-style sampled cores), the per-dataset
  circuit breaker, and the drain flag;
* :mod:`~repro.service.server` — the asyncio :class:`ClusteringService`
  plus line-delimited-JSON servers over stdio and localhost TCP
  (``repro-dbscan serve``), and the SIGTERM drain protocol;
* :mod:`~repro.service.metrics` — ``GET /metrics`` (Prometheus text) and
  ``/healthz`` on a tiny read-only HTTP responder;
* :mod:`~repro.service.client` — the in-process :class:`ServiceClient`
  (with bounded ``retry_after``-honouring retries) and the line-JSON
  :class:`TcpServiceClient`.

See ``docs/SERVICE.md`` for the endpoint reference, the admission /
degradation semantics, the persistence model, and the failure model.
"""

from repro.service.admission import AdmissionController, AdmissionPolicy, CircuitBreaker
from repro.service.client import ServiceClient, TcpServiceClient
from repro.service.metrics import render_metrics, serve_metrics
from repro.service.queue import FairScheduler, RequestKey, ServiceStats, SingleFlight
from repro.service.registry import DatasetEntry, DatasetRegistry, TenantConfig
from repro.service.server import ClusteringService
from repro.service.store import FileStore, MemoryStore, RegistryStore, open_store

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "CircuitBreaker",
    "ClusteringService",
    "DatasetEntry",
    "DatasetRegistry",
    "FairScheduler",
    "FileStore",
    "MemoryStore",
    "RegistryStore",
    "RequestKey",
    "ServiceClient",
    "ServiceStats",
    "SingleFlight",
    "TcpServiceClient",
    "TenantConfig",
    "open_store",
    "render_metrics",
    "serve_metrics",
]
