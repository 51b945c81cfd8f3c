"""The resilient grid pipeline shared by OurExact and OurApprox.

Both of the paper's grid algorithms run the same four phases (grid ->
cores -> components -> borders); only the component rule differs (BCP for
Theorem 2, approximate range counts for Theorem 4).  This module owns that
control flow once, and is where the robustness guarantees attach:

* the :class:`~repro.runtime.Deadline` is polled inside every phase's hot
  loop *and* at each phase boundary;
* the :class:`~repro.runtime.MemoryBudget` charges an up-front grid
  estimate and polls the RSS at every phase boundary;
* when a :class:`~repro.runtime.CheckpointStore` is attached, each
  completed phase is persisted before the next begins, and a rerun resumes
  from the latest phase whose output is on disk (corrupt or mismatched
  checkpoints degrade to a fresh start with a WARNING);
* when a :class:`~repro.parallel.ParallelConfig` is attached, core
  labeling counts its plan's ranges on a thread pool of the calling
  process (:mod:`repro.parallel`); an error raised in a range propagates
  as it does in the serial count, checkpoints stay phase-granular, and
  the worker count joins the checkpoint parameters so resumes never mix
  shard layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.border import assign_borders
from repro.core.result import Clustering, build_clustering
from repro.errors import ParameterError
from repro.grid import counters
from repro.grid.cells import Grid
from repro.parallel.executor import ParallelConfig, label_cores_on_threads
from repro.runtime.checkpoint import CheckpointStore, fingerprint_points, phase_index
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget, estimate_grid_bytes
from repro.utils.log import get_logger

_log = get_logger("runtime.pipeline")

#: ``connect(grid, core_mask, deadline) -> (core_labels, n_components)``
ConnectFn = Callable[[Grid, np.ndarray, Optional[Deadline]], Tuple[np.ndarray, int]]


@dataclass
class PipelineHooks:
    """Reuse and observation hooks for :func:`run_grid_pipeline`.

    This is the seam :class:`repro.engine.ClusteringEngine` plugs into —
    every field defaults to "no effect", so a hook-less run is byte-for-byte
    the classic pipeline.

    Parameters
    ----------
    grid:
        A prebuilt :class:`~repro.grid.cells.Grid` over *exactly* the run's
        points and ``eps`` (validated); phase 1 adopts it instead of
        rebuilding.
    core_mask:
        A precomputed core mask for *exactly* this ``(eps, min_pts)``;
        phase 2 adopts it instead of labeling.
    known_core:
        Monotone lower bound on the core mask (e.g. the mask of a smaller
        ``eps``); forwarded to
        :func:`~repro.parallel.executor.label_cores_on_threads`.  Ignored
        when ``core_mask`` is given.
    preunion:
        A ``(k, 2)`` array of grid cell ids, pairs already known to be in
        the same component of the core-cell graph (see
        :func:`repro.core.edgekernel.apply_preunion_dense`).  The pipeline
        only carries this — the algorithm's connect closure consumes it.
    structures:
        Warm per-cell search structures for the connect closure — Lemma 5
        hierarchies for the approximate rule, kd-trees / Voronoi diagrams
        for the exact ``kdtree``/``voronoi`` strategies, keyed by grid
        cell id; carried like
        ``preunion`` and updated in place with lazily built entries so the
        engine can harvest them.
    on_phase:
        Callback ``(phase_name, value)`` fired after each phase completes
        with the phase's product (``grid``, ``core_mask``,
        ``(core_labels, k)``, ``borders``) — the engine's harvesting hook.
    """

    grid: Optional[Grid] = None
    core_mask: Optional[np.ndarray] = None
    known_core: Optional[np.ndarray] = None
    preunion: Optional[np.ndarray] = None
    structures: Optional[Dict[int, object]] = None
    on_phase: Optional[Callable[[str, object], None]] = None

    def emit(self, phase: str, value: object) -> None:
        if self.on_phase is not None:
            self.on_phase(phase, value)


def run_grid_pipeline(
    pts: np.ndarray,
    eps: float,
    min_pts: int,
    connect: ConnectFn,
    meta: Dict[str, object],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    checkpoint: Optional[CheckpointStore] = None,
    parallel: Optional[ParallelConfig] = None,
    hooks: Optional[PipelineHooks] = None,
) -> Clustering:
    """Run the four-phase grid pipeline and assemble the result.

    ``meta`` must already contain the algorithm identity and parameters;
    the pipeline adds ``grid_cells``, ``workers`` (the thread count the
    cores phase used — 1 when its plan was gated, restored or adopted),
    ``phase_seconds`` (the wall-clock spent per phase, result assembly
    included as ``result``) and (when a resume happened)
    ``resumed_from_phase``.

    ``parallel`` fans core labeling out over a thread pool (serial when
    ``None``); the requested worker count is part of the checkpoint
    parameters, so a resume never silently mixes shard layouts produced
    under a different parallel configuration.

    ``hooks`` (see :class:`PipelineHooks`) lets a caller donate prebuilt
    phase products and harvest the run's — the clustering engine's seam.
    """
    if hooks is None:
        hooks = PipelineHooks()
    workers = 1 if parallel is None else int(parallel.workers)
    state: Optional[Dict[str, object]] = None
    fingerprint = ""
    if checkpoint is not None:
        fingerprint = fingerprint_points(pts)
        ckpt_params = {
            "algorithm": str(meta.get("algorithm", "")),
            "eps": float(eps),
            "min_pts": int(min_pts),
            "rho": float(meta["rho"]) if "rho" in meta else None,
            "workers": workers,
        }
        state = checkpoint.load_matching(fingerprint, ckpt_params)

    def reached(phase: str) -> bool:
        return state is not None and phase_index(str(state["phase"])) >= phase_index(phase)

    def persist(phase: str, **kwargs) -> None:
        if checkpoint is not None and not reached(phase):
            checkpoint.save(phase, fingerprint, ckpt_params, **kwargs)

    phase_seconds: Dict[str, float] = {}
    counters_before = counters.snapshot()
    cores_workers = 1
    # Phase 1: impose the grid T (deterministic; rebuilt unless a warm
    # grid is donated — it is the one phase cheaper to recompute than
    # to serialise, but free to adopt from a structure cache).
    mark = perf_counter()
    if hooks.grid is not None:
        grid = _adopt_grid(hooks.grid, pts, eps)
        _log.debug("grid adopted from hooks: %d non-empty cells", len(grid))
    else:
        if memory is not None:
            memory.charge_estimate(estimate_grid_bytes(len(pts), pts.shape[1]), "grid")
        grid = Grid(pts, eps)
        _log.debug("grid built: %d non-empty cells for %d points", len(grid), len(pts))
    # Build the cell adjacency now, so its cost is charged to this phase.
    grid.warm_neighbors()
    if deadline is not None:
        deadline.check()
    if memory is not None:
        memory.check("grid")
    persist("grid")
    hooks.emit("grid", grid)
    phase_seconds["grid"] = perf_counter() - mark

    # Phase 2: the labeling process -> core mask.
    mark = perf_counter()
    if reached("cores"):
        core_mask = np.asarray(state["core_mask"], dtype=bool)
        _log.debug("labeling restored from checkpoint: %d core points", int(core_mask.sum()))
    elif hooks.core_mask is not None:
        core_mask = np.asarray(hooks.core_mask, dtype=bool)
        if core_mask.shape != (len(pts),):
            raise ParameterError(
                f"hooks.core_mask has shape {core_mask.shape}; expected ({len(pts)},)"
            )
        _log.debug("labeling adopted from hooks: %d core points", int(core_mask.sum()))
        persist("cores", core_mask=core_mask)
    else:
        core_mask, cores_workers = label_cores_on_threads(
            grid, min_pts, parallel,
            deadline=deadline, memory=memory, known_core=hooks.known_core,
        )
        _log.debug("labeling done: %d core points", int(core_mask.sum()))
        persist("cores", core_mask=core_mask)
    if deadline is not None:
        deadline.check()
    if memory is not None:
        memory.check("cores")
    hooks.emit("cores", core_mask)
    phase_seconds["cores"] = perf_counter() - mark

    # Phase 3: connect the core-cell graph (Lemma 1 components).
    mark = perf_counter()
    if reached("components"):
        core_labels = np.asarray(state["core_labels"], dtype=np.int64)
        k = int(state["n_components"])
        _log.debug("graph connectivity restored from checkpoint: %d components", k)
    else:
        core_labels, k = connect(grid, core_mask, deadline)
        _log.debug("graph connectivity done: %d components", k)
        persist("components", core_mask=core_mask, core_labels=core_labels, n_components=k)
    if deadline is not None:
        deadline.check()
    if memory is not None:
        memory.check("components")
    hooks.emit("components", (core_labels, k))
    phase_seconds["components"] = perf_counter() - mark

    # Phase 4: assign border points.
    mark = perf_counter()
    if reached("borders"):
        borders = dict(state["borders"])
        _log.debug(
            "border assignment restored from checkpoint: %d border points", len(borders)
        )
    else:
        borders = assign_borders(grid, core_mask, core_labels, deadline=deadline)
        _log.debug("border assignment done: %d border points", len(borders))
        persist(
            "borders",
            core_mask=core_mask,
            core_labels=core_labels,
            n_components=k,
            borders=borders,
        )
    if memory is not None:
        memory.check("borders")
    hooks.emit("borders", borders)
    phase_seconds["borders"] = perf_counter() - mark

    meta = dict(meta)
    meta["grid_cells"] = len(grid)
    meta["phase_seconds"] = phase_seconds
    # Kernel work this run triggered, threaded core ranges included (the
    # cores fan-out publishes their tallies in the calling thread).
    kernel_counters = counters.delta_since(counters_before)
    if kernel_counters:
        meta["kernel_counters"] = kernel_counters
    meta["workers"] = cores_workers
    if state is not None:
        meta["resumed_from_phase"] = str(state["phase"])
    # ``meta`` holds this very ``phase_seconds`` dict, so the assembly time
    # recorded after the build still lands in the result's meta.
    mark = perf_counter()
    result = build_clustering(len(pts), core_mask, core_labels, borders, meta=meta)
    phase_seconds["result"] = perf_counter() - mark
    return result


def _adopt_grid(grid: Grid, pts: np.ndarray, eps: float) -> Grid:
    """Validate a donated grid against this run's inputs before adopting it."""
    if grid.eps != float(eps):
        raise ParameterError(
            f"hooks.grid was built for eps={grid.eps}; this run uses eps={eps}"
        )
    if grid.points.shape != np.shape(pts):
        raise ParameterError(
            f"hooks.grid covers points of shape {grid.points.shape}; "
            f"this run clusters shape {np.shape(pts)}"
        )
    if grid.points is not pts and not np.array_equal(grid.points, pts):
        raise ParameterError("hooks.grid was built over different points")
    return grid
