"""OurExact: the paper's new exact DBSCAN algorithm (Section 3.2, Theorem 2).

Pipeline (shared with OurApprox through :mod:`repro.runtime.pipeline`):

1. impose the grid ``T`` with cell side ``eps / sqrt(d)``;
2. run the labeling process to find core points;
3. build the core-cell graph ``G`` with a BCP computation per
   eps-neighbouring core-cell pair;
4. the connected components of ``G`` are the clusters' core points
   (Lemma 1);
5. assign border points.

For ``d = 2`` this *is* Gunawan's ``O(n log n)`` algorithm — pass
``bcp_strategy="kdtree"`` to use nearest-neighbour queries for the edge
computation as his thesis does (the default picks automatically).

All entry points accept a ``time_budget`` (or a ready-made
:class:`~repro.runtime.Deadline`), an optional memory budget, and an
optional checkpoint path for phase-level resume — see
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cellgraph import exact_components
from repro.core.params import DBSCANParams
from repro.core.result import Clustering
from repro.parallel.executor import WorkersLike, as_parallel_config
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.deadline import Deadline, as_deadline
from repro.runtime.memory import MemoryBudget, as_memory_budget
from repro.runtime.pipeline import PipelineHooks, run_grid_pipeline
from repro.utils.log import get_logger
from repro.utils.validation import as_points

_log = get_logger("algorithms.exact_grid")


def exact_grid_dbscan(
    points,
    eps: float,
    min_pts: int,
    bcp_strategy: str = "auto",
    *,
    time_budget: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    memory_budget_mb: Optional[float] = None,
    memory: Optional[MemoryBudget] = None,
    checkpoint: Optional[str] = None,
    workers: WorkersLike = None,
    hooks: Optional[PipelineHooks] = None,
) -> Clustering:
    """Exact DBSCAN via the grid + BCP algorithm of Theorem 2.

    ``time_budget`` (seconds) aborts the run with
    :class:`~repro.errors.TimeoutExceeded`; ``memory_budget_mb`` guards the
    process RSS with :class:`~repro.errors.MemoryBudgetExceeded`;
    ``checkpoint`` names a ``.npz`` file that each completed phase is saved
    to, from which an identical invocation resumes.  ``workers`` (an int
    or a :class:`~repro.parallel.ParallelConfig`) fans core labeling out
    over a thread pool; the labeling is identical to the serial run (see ``docs/PARALLEL.md``).  ``hooks``
    donates warm phase products and monotone-sweep seeds
    (:class:`~repro.runtime.pipeline.PipelineHooks`) — the reuse seam of
    :class:`repro.engine.ClusteringEngine`; the output is identical with
    or without them.
    """
    params = DBSCANParams(eps, min_pts)
    pts = as_points(points)
    cfg = as_parallel_config(workers)
    guard = as_memory_budget(memory_budget_mb, memory)
    preunion = None if hooks is None else hooks.preunion
    structures = None if hooks is None else hooks.structures

    def connect(grid, core_mask, dl):
        return exact_components(
            grid, core_mask, bcp_strategy,
            deadline=dl, preunion=preunion, structures=structures,
        )

    return run_grid_pipeline(
        pts,
        params.eps,
        params.min_pts,
        connect,
        meta={
            "algorithm": "exact_grid",
            "eps": params.eps,
            "min_pts": params.min_pts,
            "bcp_strategy": bcp_strategy,
        },
        deadline=as_deadline(time_budget, deadline),
        memory=guard,
        checkpoint=CheckpointStore(checkpoint) if checkpoint else None,
        parallel=cfg,
        hooks=hooks,
    )


def gunawan_2d_dbscan(
    points,
    eps: float,
    min_pts: int,
    edges: str = "kdtree",
    *,
    time_budget: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    memory_budget_mb: Optional[float] = None,
    checkpoint: Optional[str] = None,
    workers: WorkersLike = None,
    hooks: Optional[PipelineHooks] = None,
) -> Clustering:
    """Gunawan's 2D O(n log n) algorithm (d = 2 only).

    ``edges`` selects the per-cell nearest-neighbour machinery for the
    graph computation: ``"voronoi"`` builds a Voronoi diagram (Delaunay
    dual) per core cell exactly as the thesis describes; ``"kdtree"``
    (default) answers the same queries from a kd-tree per cell, which is
    asymptotically equivalent and faster in this pure-Python setting.
    Budget and checkpoint arguments behave as in :func:`exact_grid_dbscan`.
    """
    pts = as_points(points)
    if pts.shape[1] != 2:
        raise ValueError("gunawan_2d_dbscan requires 2-D points")
    if edges not in ("kdtree", "voronoi"):
        raise ValueError(f"edges must be 'kdtree' or 'voronoi'; got {edges!r}")
    result = exact_grid_dbscan(
        pts,
        eps,
        min_pts,
        bcp_strategy=edges,
        time_budget=time_budget,
        deadline=deadline,
        memory_budget_mb=memory_budget_mb,
        checkpoint=checkpoint,
        workers=workers,
        hooks=hooks,
    )
    result.meta["algorithm"] = "gunawan2d"
    result.meta["edges"] = edges
    return result
