"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is invalid (e.g. ``eps <= 0`` or ``min_pts < 1``)."""


class ConfigError(ReproError, ValueError):
    """An environment-provided configuration value is invalid.

    Raised at *call time* by the :mod:`repro.config` readers (e.g.
    ``REPRO_WORKERS=abc`` or a negative ``REPRO_PARALLEL_MIN_POINTS``), so
    a broken deployment fails with a message naming the variable instead
    of an unhandled ``ValueError`` deep inside the library.
    """


class DataError(ReproError, ValueError):
    """The input point set is malformed (wrong shape, NaNs, empty, ...)."""


class InvalidDataError(DataError):
    """A loaded dataset contains rows that cannot be clustered.

    Structured variant of :class:`DataError` raised by the hardened
    loaders in :mod:`repro.data.io`: carries the offending rows verbatim
    and a human-readable reason per row (with its line number), so callers
    (and the CLI) can report *which* rows were non-numeric, ragged or
    non-finite instead of letting NaNs silently poison every distance
    computation downstream.
    """

    def __init__(self, message: str, bad_rows=(), reasons=()) -> None:
        self.bad_rows = tuple(str(r) for r in bad_rows)
        self.reasons = tuple(str(r) for r in reasons)
        self._message = str(message)
        detail = message
        if self.reasons:
            shown = "; ".join(self.reasons[:5])
            more = "" if len(self.reasons) <= 5 else f"; +{len(self.reasons) - 5} more"
            detail = f"{message} ({shown}{more})"
        super().__init__(detail)

    def __reduce__(self):
        # Exception pickling replays ``args`` (the formatted message) into
        # ``__init__``; rebuild from the structured fields instead.
        return (InvalidDataError, (self._message, self.bad_rows, self.reasons))


class AlgorithmError(ReproError, RuntimeError):
    """An algorithm reached an internal state that violates its invariants."""


class TimeoutExceeded(ReproError, RuntimeError):
    """A run exceeded its configured wall-clock budget.

    Mirrors the paper's "did not terminate within 12 hours" markers for the
    KDD96 / CIT08 baselines (Section 5.3).  Raised cooperatively by every
    algorithm through :class:`repro.runtime.Deadline`.
    """

    def __init__(self, elapsed: float, budget: float) -> None:
        super().__init__(
            f"run exceeded its time budget: {elapsed:.2f}s elapsed > {budget:.2f}s allowed"
        )
        self.elapsed = elapsed
        self.budget = budget

    def __reduce__(self):
        # Default Exception pickling would replay ``args`` (the formatted
        # message) into ``__init__`` and crash on the missing ``budget``;
        # worker processes re-raise this error across the pool boundary.
        return (TimeoutExceeded, (self.elapsed, self.budget))


class MemoryBudgetExceeded(ReproError, RuntimeError):
    """A run exceeded (or would exceed) its configured memory budget.

    Raised either up front, when a footprint estimate for a phase already
    overshoots the budget, or at a phase boundary when the polled process
    RSS crosses it.
    """

    def __init__(self, observed_bytes: float, budget_bytes: float, phase: str = "") -> None:
        where = f" during {phase}" if phase else ""
        super().__init__(
            f"run exceeded its memory budget{where}: "
            f"{observed_bytes / 1e6:.1f} MB observed > {budget_bytes / 1e6:.1f} MB allowed"
        )
        self.observed_bytes = float(observed_bytes)
        self.budget_bytes = float(budget_bytes)
        self.phase = phase

    def __reduce__(self):
        # See TimeoutExceeded.__reduce__: keep the error picklable across
        # worker process boundaries despite the multi-argument constructor.
        return (MemoryBudgetExceeded, (self.observed_bytes, self.budget_bytes, self.phase))


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing a field, corrupt, or unreadable.

    The checkpointing pipeline treats this as recoverable: it logs a
    WARNING and recomputes from scratch instead of failing the run.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class for errors raised by the clustering service layer.

    Raised by :mod:`repro.service` (the asyncio front-end over a shared
    :class:`~repro.engine.ClusteringEngine`), never by the algorithms
    themselves.  Every subclass is a *structured* verdict a client can act
    on — back off, pick another dataset, fix the request — and carries an
    ``as_dict()`` rendering for the wire protocol.
    """

    #: Stable machine-readable discriminator for the wire protocol.
    code = "service"

    def as_dict(self) -> dict:
        """Wire-protocol rendering: ``{"code", "message", ...fields}``."""
        return {"code": self.code, "message": str(self)}


class ServiceOverloadError(ServiceError):
    """The service shed a request instead of queueing it forever.

    Raised by the admission controller when the bounded request queue is
    full, or by the dispatcher when a request's deadline expired while it
    waited in the queue.  Carries the queue state and a ``retry_after``
    hint so clients can implement honest backoff instead of hammering an
    overloaded service.
    """

    code = "overload"

    def __init__(
        self,
        message: str,
        *,
        reason: str = "queue-full",
        queue_depth: int = 0,
        limit: int = 0,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = str(reason)
        self.queue_depth = int(queue_depth)
        self.limit = int(limit)
        self.retry_after = None if retry_after is None else float(retry_after)

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update(
            reason=self.reason,
            queue_depth=self.queue_depth,
            limit=self.limit,
            retry_after=self.retry_after,
        )
        return out

    def __reduce__(self):
        # Multi-argument constructor: rebuild from the structured fields
        # (see TimeoutExceeded.__reduce__ for the pickling rationale).
        return (
            _rebuild_overload,
            (
                self.args[0] if self.args else "",
                self.reason,
                self.queue_depth,
                self.limit,
                self.retry_after,
            ),
        )


def _rebuild_overload(message, reason, queue_depth, limit, retry_after):
    return ServiceOverloadError(
        message,
        reason=reason,
        queue_depth=queue_depth,
        limit=limit,
        retry_after=retry_after,
    )


class UnknownDatasetError(ServiceError):
    """A request named a dataset the registry does not hold."""

    code = "unknown-dataset"

    def __init__(self, name: str, known=()) -> None:
        self.name = str(name)
        self.known = tuple(sorted(str(k) for k in known))
        hint = f"; registered: {list(self.known)}" if self.known else ""
        super().__init__(f"unknown dataset {self.name!r}{hint}")

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update(name=self.name, known=list(self.known))
        return out

    def __reduce__(self):
        return (UnknownDatasetError, (self.name, self.known))


class DatasetQuarantinedError(ServiceError):
    """The circuit breaker has quarantined a dataset after repeated faults.

    A dataset whose requests keep failing for infrastructure reasons
    (internal errors, not budget verdicts or caller mistakes) is
    quarantined for a cooldown period so one poisonous tenant cannot keep
    burning executor slots that other tenants need.  ``retry_after`` tells clients
    when the breaker will next allow a probe.
    """

    code = "quarantined"

    def __init__(self, name: str, failures: int, retry_after: float) -> None:
        self.name = str(name)
        self.failures = int(failures)
        self.retry_after = float(retry_after)
        super().__init__(
            f"dataset {self.name!r} is quarantined after {self.failures} "
            f"consecutive failure(s); retry in {self.retry_after:.1f}s"
        )

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update(name=self.name, failures=self.failures, retry_after=self.retry_after)
        return out

    def __reduce__(self):
        return (DatasetQuarantinedError, (self.name, self.failures, self.retry_after))


class RegistryStoreError(ServiceError):
    """The registry's backing store refused or lost an operation.

    Raised by :mod:`repro.service.store` for problems with the persistence
    layer itself — a missing or unreadable payload file, an append on a
    closed store, an invalid store configuration.  Torn journals and
    corrupt snapshots do *not* raise: recovery truncates to the last valid
    record and quarantines the rest (see ``docs/SERVICE.md``), because a
    service that refuses to start over one torn write is worse than one
    that restarts with the catalog it can prove.
    """

    code = "store"
