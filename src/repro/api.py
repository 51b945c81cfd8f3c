"""Public entry points of the library.

Three calls cover the paper's headline functionality plus the resilient
runtime:

>>> from repro import dbscan, approx_dbscan, run_resilient
>>> result = dbscan(points, eps=0.3, min_pts=10)          # exact (Theorem 2)
>>> result = approx_dbscan(points, eps=0.3, min_pts=10, rho=0.001)  # Theorem 4
>>> result = run_resilient(points, eps=0.3, min_pts=10)   # degrade, don't die

``dbscan`` also exposes every exact algorithm the paper evaluates through
its ``algorithm`` argument, so benchmark code and curious users can compare
them directly.  ``time_budget`` is honoured *uniformly*: every algorithm
polls a cooperative :class:`~repro.runtime.Deadline` in its hot loops and
raises :class:`~repro.errors.TimeoutExceeded` promptly (historically only
the expansion baselines did).
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.approx import approx_dbscan
from repro.algorithms.brute import brute_dbscan
from repro.algorithms.cit08 import cit08_dbscan
from repro.algorithms.exact_grid import exact_grid_dbscan, gunawan_2d_dbscan
from repro.algorithms.kdd96 import kdd96_dbscan
from repro.core.result import Clustering, empty_clustering
from repro.errors import ParameterError
from repro.parallel.executor import ParallelConfig, WorkersLike, as_parallel_config
from repro.runtime.deadline import as_deadline
from repro.runtime.memory import as_memory_budget
from repro.runtime.resilient import ResiliencePolicy, run_resilient, sampled_dbscan
from repro.utils.validation import as_points

#: Names accepted by :func:`dbscan`'s ``algorithm`` argument.
EXACT_ALGORITHMS = ("grid", "kdd96", "cit08", "brute", "gunawan2d")


def dbscan(
    points,
    eps: float,
    min_pts: int,
    algorithm: str = "grid",
    time_budget: Optional[float] = None,
    *,
    memory_budget_mb: Optional[float] = None,
    checkpoint: Optional[str] = None,
    workers: WorkersLike = None,
    engine=None,
) -> Clustering:
    """Exact DBSCAN (Problem 1) with a selectable algorithm.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.  An empty input is a legal
        degenerate workload: the result is the empty clustering (no
        clusters, no points) rather than an error.
    eps, min_pts:
        The DBSCAN parameters of Definition 1.
    algorithm:
        ``"grid"``
            the paper's new exact algorithm (Section 3.2, Theorem 2) —
            recommended default;
        ``"kdd96"``
            the original 1996 algorithm over an R-tree;
        ``"cit08"``
            the grid-accelerated 2008 baseline;
        ``"gunawan2d"``
            Gunawan's O(n log n) algorithm (2-D inputs only);
        ``"brute"``
            the O(n^2) reference implementation.
    time_budget:
        Optional per-run cut-off in seconds, honoured by **every**
        algorithm (raises :class:`~repro.errors.TimeoutExceeded`).
    memory_budget_mb:
        Optional RSS budget in megabytes, polled at phase boundaries
        (raises :class:`~repro.errors.MemoryBudgetExceeded`).
    checkpoint:
        Optional path to a ``.npz`` checkpoint file.  Supported by the
        grid-pipeline algorithms (``"grid"`` and ``"gunawan2d"``): each
        completed phase is persisted, and an identical invocation resumes
        from the last completed phase.
    workers:
        Optional worker-process count (or a
        :class:`~repro.parallel.ParallelConfig`).  Supported by the
        grid-pipeline algorithms (``"grid"`` and ``"gunawan2d"``), whose
        core labeling shards across a *supervised* multiprocessing pool
        with output identical to the serial run; explicitly requesting more
        than one worker for any other algorithm raises
        :class:`~repro.errors.ParameterError`.  Defaults to the
        ``REPRO_WORKERS`` environment variable (see
        :func:`repro.config.default_workers`); the environment default is
        silently ignored by algorithms that cannot parallelise.  On a
        crashed, failing or hung worker (soft timeout: pass a
        :class:`~repro.parallel.ParallelConfig` to set ``shard_timeout``)
        the supervisor tears the workers down and counts every unfinished
        range in the parent, so the output stays identical.  The ranges
        re-run that way are recorded in ``result.meta["supervisor"]``.
    engine:
        Optional :class:`~repro.engine.ClusteringEngine` built over these
        same points.  The call is answered through the engine's structure
        cache (warm grids, indexes and core masks are reused; the output
        is byte-identical to the engine-less call).  Incompatible with
        ``checkpoint`` — phase-level resume and structure donation would
        fight over the same phases — and the points must match the
        engine's dataset.

    Returns
    -------
    Clustering
        The unique DBSCAN result: clusters (with multi-membership border
        points), a primary label array, and the core mask.
    """
    pts = as_points(points, allow_empty=True)
    if len(pts) == 0:
        if algorithm not in EXACT_ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {algorithm!r}; choose from {EXACT_ALGORITHMS}"
            )
        return empty_clustering(
            meta={"algorithm": algorithm, "eps": float(eps), "min_pts": int(min_pts)}
        )
    deadline = as_deadline(time_budget)
    memory = as_memory_budget(memory_budget_mb)
    cfg = as_parallel_config(workers)
    if cfg is not None and algorithm not in ("grid", "gunawan2d"):
        if workers is None:
            # The multi-worker request came from the REPRO_WORKERS
            # environment default, not the caller: fall back to serial
            # instead of making the env var poison non-grid algorithms.
            cfg = None
        else:
            raise ParameterError(
                f"algorithm {algorithm!r} does not support workers > 1; "
                "only the grid-pipeline algorithms ('grid', 'gunawan2d') "
                "parallelise"
            )
    # cfg is already resolved (env default included); pass 1 when serial so
    # the callee does not consult the environment a second time.
    resolved_workers: WorkersLike = cfg if cfg is not None else 1
    if engine is not None:
        if checkpoint is not None:
            raise ParameterError(
                "checkpoint cannot be combined with engine=; run either a "
                "resumable one-shot call or a cached engine call"
            )
        if not engine.matches(pts):
            raise ParameterError(
                "engine was built over a different dataset than the points "
                "passed to dbscan(); build a ClusteringEngine over these points"
            )
        return engine.dbscan(
            eps, min_pts, algorithm=algorithm, deadline=deadline,
            memory_budget_mb=memory_budget_mb, workers=resolved_workers,
        )
    if algorithm == "grid":
        return exact_grid_dbscan(
            pts, eps, min_pts, deadline=deadline, memory=memory,
            checkpoint=checkpoint, workers=resolved_workers,
        )
    if algorithm == "kdd96":
        return kdd96_dbscan(pts, eps, min_pts, deadline=deadline, memory=memory)
    if algorithm == "cit08":
        return cit08_dbscan(pts, eps, min_pts, deadline=deadline, memory=memory)
    if algorithm == "gunawan2d":
        return gunawan_2d_dbscan(
            pts, eps, min_pts, deadline=deadline,
            memory_budget_mb=memory_budget_mb, checkpoint=checkpoint,
            workers=resolved_workers,
        )
    if algorithm == "brute":
        return brute_dbscan(pts, eps, min_pts, deadline=deadline, memory=memory)
    raise ParameterError(
        f"unknown algorithm {algorithm!r}; choose from {EXACT_ALGORITHMS}"
    )


__all__ = [
    "dbscan",
    "approx_dbscan",
    "run_resilient",
    "sampled_dbscan",
    "ResiliencePolicy",
    "ParallelConfig",
    "EXACT_ALGORITHMS",
]
