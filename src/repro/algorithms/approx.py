"""OurApprox: rho-approximate DBSCAN in O(n) expected time (Theorem 4).

Identical to the exact grid algorithm except for the core-cell graph: the
edge between two eps-neighbouring core cells is decided by approximate
range-count queries (Lemma 5 structures built on each cell's core points)
under the paper's yes / no / don't-care contract.  The structures are the
flat batched kernel (:class:`repro.grid.FlatHierarchy`): each edge test is
one batched query over all of the probing cell's core points, and warm
structures donated through ``hooks.structures`` (the engine's cache seam)
are reused as-is — serial, parallel and engine-cached runs all answer
through the same kernel.

The output is a legal solution to Problem 2 and therefore enjoys the
sandwich guarantee of Theorem 3: every exact-DBSCAN(eps) cluster is
contained in one of these clusters, and each of these clusters is contained
in an exact-DBSCAN(eps(1+rho)) cluster.  This guarantee is what makes the
degradation cascade of :func:`repro.runtime.run_resilient` principled:
falling back from the exact algorithm to this one bounds the damage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cellgraph import approx_components
from repro.core.params import ApproxParams
from repro.core.result import Clustering, empty_clustering
from repro.errors import ParameterError
from repro.parallel.executor import WorkersLike, as_parallel_config
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.deadline import Deadline, as_deadline
from repro.runtime.memory import MemoryBudget, as_memory_budget
from repro.runtime.pipeline import PipelineHooks, run_grid_pipeline
from repro.utils.log import get_logger
from repro.utils.validation import as_points

_log = get_logger("algorithms.approx")


def approx_dbscan(
    points,
    eps: float,
    min_pts: int,
    rho: float = 0.001,
    exact_leaf_size: int | None = None,
    *,
    time_budget: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    memory_budget_mb: Optional[float] = None,
    memory: Optional[MemoryBudget] = None,
    checkpoint: Optional[str] = None,
    workers: WorkersLike = None,
    hooks: Optional[PipelineHooks] = None,
    engine=None,
) -> Clustering:
    """rho-approximate DBSCAN (Theorem 4).

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.  An empty input is a legal
        degenerate workload and yields an empty clustering.
    eps, min_pts:
        The usual DBSCAN parameters.
    rho:
        Approximation constant; the paper recommends 0.001 (Section 5.2).
    exact_leaf_size:
        Tuning knob of the Lemma 5 structures (None = library default;
        0 = the paper's verbatim structure).
    time_budget:
        Optional wall-clock cut-off in seconds (raises
        :class:`~repro.errors.TimeoutExceeded`); ``deadline`` passes a
        ready-made token instead.
    memory_budget_mb:
        Optional RSS budget (raises
        :class:`~repro.errors.MemoryBudgetExceeded`).
    checkpoint:
        Optional ``.npz`` path for phase-level checkpoint/resume.
    workers:
        Optional thread count (or a
        :class:`~repro.parallel.ParallelConfig`) fanning core labeling out
        over a thread pool; the labeling is identical to the serial run.
    hooks:
        Warm phase products and monotone-sweep seeds
        (:class:`~repro.runtime.pipeline.PipelineHooks`) — the reuse seam
        of :class:`repro.engine.ClusteringEngine`.  The output is
        identical with or without them.
    engine:
        Optional :class:`~repro.engine.ClusteringEngine` over these same
        points: the call is answered through its structure cache (byte-
        identical output).  Incompatible with ``checkpoint`` and with an
        explicit ``hooks``.
    """
    params = ApproxParams(eps, min_pts, rho)
    pts = as_points(points, allow_empty=True)
    if len(pts) == 0:
        return empty_clustering(
            meta={
                "algorithm": "approx",
                "eps": params.eps,
                "min_pts": params.min_pts,
                "rho": params.rho,
            }
        )

    if engine is not None:
        if checkpoint is not None:
            raise ParameterError(
                "checkpoint cannot be combined with engine=; run either a "
                "resumable one-shot call or a cached engine call"
            )
        if hooks is not None:
            raise ParameterError(
                "pass either engine= (which builds its own hooks) or hooks=, "
                "not both"
            )
        if not engine.matches(pts):
            raise ParameterError(
                "engine was built over a different dataset than the points "
                "passed to approx_dbscan(); build a ClusteringEngine over "
                "these points"
            )
        return engine.approx_dbscan(
            params.eps, params.min_pts, params.rho, exact_leaf_size,
            time_budget=time_budget, deadline=deadline,
            memory_budget_mb=memory_budget_mb, workers=workers,
        )

    cfg = as_parallel_config(workers)
    guard = as_memory_budget(memory_budget_mb, memory)
    preunion = None if hooks is None else hooks.preunion
    structures = None if hooks is None else hooks.structures

    def connect(grid, core_mask, dl):
        return approx_components(
            grid, core_mask, params.rho, exact_leaf_size,
            deadline=dl, preunion=preunion, structures=structures,
        )

    return run_grid_pipeline(
        pts,
        params.eps,
        params.min_pts,
        connect,
        meta={
            "algorithm": "approx",
            "eps": params.eps,
            "min_pts": params.min_pts,
            "rho": params.rho,
        },
        deadline=as_deadline(time_budget, deadline),
        memory=guard,
        checkpoint=CheckpointStore(checkpoint) if checkpoint else None,
        parallel=cfg,
        hooks=hooks,
    )
