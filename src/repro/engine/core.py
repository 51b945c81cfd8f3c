""":class:`ClusteringEngine` — one dataset, many clustering requests.

The engine owns a point set and serves repeated clustering calls over it,
reusing everything that does not depend on the changing parameters:

* every structure (grid, spatial index, Lemma 5 hierarchies, core masks)
  is built at most once per process via a :class:`~repro.engine.cache.\
StructureCache` keyed by ``(dataset_fingerprint, kind, params)``;
* :meth:`sweep` runs an incremental multi-eps sweep that carries the
  previous step's monotone products forward (see
  :mod:`repro.engine.sweep` for the correctness argument);
* parallel runs profit transparently — the cores fan-out of
  :mod:`repro.parallel` forks workers that inherit the warm grid, and
  every cached structure is read in the parent.

Every engine result is **byte-identical** to the corresponding one-shot
:func:`repro.dbscan` / :func:`repro.approx_dbscan` call: the reuse seams
(:class:`~repro.runtime.pipeline.PipelineHooks`) only donate values the
pipeline would have recomputed identically.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import Clustering, empty_clustering
from repro.engine.cache import StructureCache, default_cache
from repro.engine.sweep import approx_carry_ok, ascending_order, preunion_pairs
from repro.errors import ParameterError
from repro.grid.cells import Grid
from repro.runtime.checkpoint import fingerprint_points
from repro.runtime.deadline import Deadline, as_deadline
from repro.runtime.memory import as_memory_budget
from repro.runtime.pipeline import PipelineHooks
from repro.utils.validation import as_points

#: Algorithms :meth:`ClusteringEngine.sweep` supports (the grid-pipeline
#: family, where the monotone carry-forward applies).
SWEEP_ALGORITHMS = ("grid", "approx")


class ClusteringEngine:
    """A reusable clustering service over one fixed dataset.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.  The engine keeps the validated
        array; do not mutate it afterwards (the dataset fingerprint, and
        with it every cache key, assumes the data is frozen).
    cache:
        The :class:`~repro.engine.cache.StructureCache` to use; defaults
        to the process-global cache, so independent engines over the same
        dataset share structures (the fingerprint keys keep different
        datasets apart).
    workers:
        Default ``workers`` argument for every call that does not pass its
        own (same semantics as :func:`repro.dbscan`).

    Examples
    --------
    >>> engine = ClusteringEngine(points)
    >>> one = engine.dbscan(eps=0.3, min_pts=10)        # cold: builds grid
    >>> two = engine.dbscan(eps=0.3, min_pts=20)        # warm: reuses grid
    >>> many = engine.sweep([0.1, 0.2, 0.4], min_pts=10)  # incremental
    """

    def __init__(self, points, *, cache: Optional[StructureCache] = None, workers=None) -> None:
        self.points = as_points(points, allow_empty=True)
        self.fingerprint = fingerprint_points(self.points)
        self.cache = cache if cache is not None else default_cache()
        self.workers = workers
        # Thread-safe run ledger: how many clustering executions this engine
        # actually performed, per algorithm.  The service layer's coalescing
        # tests read it to prove N identical concurrent requests executed
        # exactly once.
        self._runs_lock = threading.Lock()
        self._runs: Dict[str, int] = {}

    def _record_run(self, algorithm: str) -> None:
        with self._runs_lock:
            self._runs[algorithm] = self._runs.get(algorithm, 0) + 1

    def run_counts(self) -> Dict[str, int]:
        """Snapshot of executed runs per algorithm (thread-safe)."""
        with self._runs_lock:
            return dict(self._runs)

    @property
    def runs_executed(self) -> int:
        """Total clustering executions this engine performed."""
        with self._runs_lock:
            return sum(self._runs.values())

    def __repr__(self) -> str:
        return (
            f"ClusteringEngine(n={len(self.points)}, "
            f"d={self.points.shape[1] if self.points.ndim == 2 else '?'}, "
            f"fingerprint={self.fingerprint[:12]!r})"
        )

    # ------------------------------------------------------------ plumbing

    def _key(self, kind: str, *params) -> Tuple:
        return (self.fingerprint, kind) + params

    def matches(self, points) -> bool:
        """True when ``points`` is (or equals) the engine's dataset."""
        pts = as_points(points, allow_empty=True)
        if pts is self.points:
            return True
        return pts.shape == self.points.shape and bool(np.array_equal(pts, self.points))

    def grid(self, eps: float) -> Grid:
        """The cached grid ``T`` for ``eps`` (built on first use).

        The build includes the cell adjacency, so the cache's one charge
        at insertion covers it (and the pipeline's grid phase finds it warm).
        """
        eps = float(eps)

        def build() -> Grid:
            grid = Grid(self.points, eps)
            grid.warm_neighbors()
            return grid

        return self.cache.get_or_build(self._key("grid", eps), build)

    def index(self, kind: str = "rtree"):
        """The cached spatial index for the expansion baselines."""
        if kind == "rtree":
            from repro.index.rtree import RTree

            build = lambda: RTree(self.points)  # noqa: E731
        elif kind == "rstar":
            from repro.index.rstar import RStarTree

            build = lambda: RStarTree(self.points)  # noqa: E731
        elif kind == "kdtree":
            from repro.index.kdtree import KDTree

            build = lambda: KDTree(self.points)  # noqa: E731
        else:
            raise ParameterError(
                f"unknown index {kind!r}; choose from ('rtree', 'rstar', 'kdtree')"
            )
        return self.cache.get_or_build(self._key("index", kind), build)

    # ----------------------------------------------------------- execution

    def dbscan(
        self,
        eps: float,
        min_pts: int,
        algorithm: str = "grid",
        *,
        time_budget: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        memory_budget_mb: Optional[float] = None,
        workers=None,
        bcp_strategy: str = "auto",
        index: str = "rtree",
    ) -> Clustering:
        """Exact DBSCAN through the engine's structure cache.

        Mirrors :func:`repro.dbscan` (same algorithms, same output, byte
        for byte); the grid-pipeline algorithms reuse the cached grid and
        core mask, ``kdd96`` reuses the cached spatial index, and the
        remaining baselines simply delegate.
        """
        if len(self.points) == 0:
            return empty_clustering(
                meta={"algorithm": algorithm, "eps": float(eps), "min_pts": int(min_pts)}
            )
        workers = self.workers if workers is None else workers
        if algorithm in ("grid", "gunawan2d"):
            return self._run_grid(
                eps, min_pts, algorithm=algorithm, bcp_strategy=bcp_strategy,
                time_budget=time_budget, deadline=deadline,
                memory_budget_mb=memory_budget_mb, workers=workers,
            )
        if algorithm == "kdd96":
            from repro.algorithms.kdd96 import kdd96_dbscan

            self._record_run(algorithm)
            return kdd96_dbscan(
                self.points, eps, min_pts, index=index,
                time_budget=time_budget, deadline=deadline,
                memory=as_memory_budget(memory_budget_mb),
                tree=self.index(index),
            )
        if algorithm == "cit08":
            from repro.algorithms.cit08 import cit08_dbscan

            self._record_run(algorithm)
            return cit08_dbscan(
                self.points, eps, min_pts, time_budget=time_budget,
                deadline=deadline, memory=as_memory_budget(memory_budget_mb),
            )
        if algorithm == "brute":
            from repro.algorithms.brute import brute_dbscan

            self._record_run(algorithm)
            return brute_dbscan(
                self.points, eps, min_pts, time_budget=time_budget,
                deadline=deadline, memory=as_memory_budget(memory_budget_mb),
            )
        raise ParameterError(
            f"unknown algorithm {algorithm!r}; choose from "
            "('grid', 'gunawan2d', 'kdd96', 'cit08', 'brute')"
        )

    def approx_dbscan(
        self,
        eps: float,
        min_pts: int,
        rho: float = 0.001,
        exact_leaf_size: Optional[int] = None,
        *,
        time_budget: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        memory_budget_mb: Optional[float] = None,
        workers=None,
    ) -> Clustering:
        """rho-approximate DBSCAN through the engine's structure cache.

        Byte-identical to :func:`repro.approx_dbscan`; reuses the cached
        grid, core mask and (on repeated identical calls) the per-cell
        Lemma 5 structures.
        """
        if len(self.points) == 0:
            return empty_clustering(
                meta={
                    "algorithm": "approx", "eps": float(eps),
                    "min_pts": int(min_pts), "rho": float(rho),
                }
            )
        workers = self.workers if workers is None else workers
        return self._run_grid(
            eps, min_pts, algorithm="approx", rho=rho,
            exact_leaf_size=exact_leaf_size, time_budget=time_budget,
            deadline=deadline, memory_budget_mb=memory_budget_mb,
            workers=workers,
        )

    def sweep(
        self,
        eps_list: Sequence[float],
        min_pts: int,
        *,
        algorithm: str = "grid",
        rho: float = 0.001,
        exact_leaf_size: Optional[int] = None,
        time_budget: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
        workers=None,
    ) -> List[Clustering]:
        """Cluster the dataset at every ``eps`` of ``eps_list`` incrementally.

        The sweep computes in ascending ``eps`` order (results come back in
        the caller's order) so each step can reuse the previous step's
        monotone products — the core mask as a ``known_core`` lower bound
        and, when sound, the previous connectivity as a pre-union seed (for
        ``algorithm="approx"`` the seed is dropped whenever
        ``eps < prev_eps * (1 + rho)``; see :mod:`repro.engine.sweep`).

        Every element of the returned list is byte-identical to a fresh
        :func:`repro.dbscan` / :func:`repro.approx_dbscan` call at that
        ``eps``.  ``time_budget`` covers the *whole* sweep.
        """
        if algorithm not in SWEEP_ALGORITHMS:
            raise ParameterError(
                f"sweep supports algorithms {SWEEP_ALGORITHMS}; got {algorithm!r}"
            )
        order = ascending_order(eps_list)
        results: List[Optional[Clustering]] = [None] * len(order)
        if len(self.points) == 0:
            for pos in order:
                results[pos] = (
                    self.approx_dbscan(eps_list[pos], min_pts, rho, exact_leaf_size)
                    if algorithm == "approx"
                    else self.dbscan(eps_list[pos], min_pts)
                )
            return results
        deadline = as_deadline(time_budget)
        prev_eps: Optional[float] = None
        prev_result: Optional[Clustering] = None
        for pos in order:
            eps = float(eps_list[pos])
            known_core = None
            preunion = None
            if prev_result is not None:
                known_core = prev_result.core_mask
                if algorithm == "grid" or approx_carry_ok(prev_eps, eps, rho):
                    preunion = preunion_pairs(prev_result, self.grid(eps))
            result = self._run_grid(
                eps, min_pts,
                algorithm="approx" if algorithm == "approx" else "grid",
                rho=rho, exact_leaf_size=exact_leaf_size,
                deadline=deadline, memory_budget_mb=memory_budget_mb,
                workers=self.workers if workers is None else workers,
                known_core=known_core, preunion=preunion,
            )
            results[pos] = result
            prev_eps, prev_result = eps, result
        return results

    # ------------------------------------------------------------ internal

    def _run_grid(
        self,
        eps: float,
        min_pts: int,
        *,
        algorithm: str,
        bcp_strategy: str = "auto",
        rho: Optional[float] = None,
        exact_leaf_size: Optional[int] = None,
        time_budget: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        memory_budget_mb: Optional[float] = None,
        workers=None,
        known_core: Optional[np.ndarray] = None,
        preunion=None,
    ) -> Clustering:
        """One grid-pipeline run wired through the cache.

        Donates the cached grid and (when present) the cached core mask,
        harvests whatever the run produced back into the cache, and passes
        the monotone-sweep seeds straight through to the pipeline hooks.
        """
        eps = float(eps)
        min_pts = int(min_pts)
        self._record_run(algorithm)
        grid = self.grid(eps)
        cores_key = self._key("cores", eps, min_pts)
        core_mask = self.cache.get(cores_key)
        harvested: Dict[str, object] = {}
        hooks = PipelineHooks(
            grid=grid,
            core_mask=core_mask,
            known_core=None if core_mask is not None else known_core,
            preunion=preunion,
            on_phase=lambda phase, value: harvested.__setitem__(phase, value),
        )
        structures_key = None
        fresh_structures = False
        if algorithm != "approx":
            # The exact edge predicates keep per-cell search structures
            # (kd-trees / Voronoi diagrams) for the strategies that build
            # them — cache those exactly like the Lemma 5 structures, so
            # warm service requests stop rebuilding trees.  The pairwise
            # BCP modes keep no per-cell state; nothing to cache there.
            strategy = bcp_strategy
            if algorithm == "gunawan2d" and strategy == "auto":
                strategy = "kdtree"
            if strategy in ("kdtree", "voronoi"):
                structures_key = self._key(
                    "exact_structures", eps, min_pts, strategy
                )
                structures = self.cache.get(structures_key)
                fresh_structures = structures is None
                hooks.structures = {} if fresh_structures else structures
        if algorithm == "approx":
            structures_key = self._key(
                "structures", eps, min_pts, float(rho), exact_leaf_size
            )
            structures = self.cache.get(structures_key)
            fresh_structures = structures is None
            hooks.structures = {} if fresh_structures else structures

            from repro.algorithms.approx import approx_dbscan

            result = approx_dbscan(
                self.points, eps, min_pts, rho, exact_leaf_size,
                time_budget=time_budget, deadline=deadline,
                memory_budget_mb=memory_budget_mb, workers=workers,
                hooks=hooks,
            )
        elif algorithm == "gunawan2d":
            from repro.algorithms.exact_grid import gunawan_2d_dbscan

            result = gunawan_2d_dbscan(
                self.points, eps, min_pts, edges=(
                    "kdtree" if bcp_strategy == "auto" else bcp_strategy
                ),
                time_budget=time_budget, deadline=deadline,
                memory_budget_mb=memory_budget_mb, workers=workers,
                hooks=hooks,
            )
        else:
            from repro.algorithms.exact_grid import exact_grid_dbscan

            result = exact_grid_dbscan(
                self.points, eps, min_pts, bcp_strategy=bcp_strategy,
                time_budget=time_budget, deadline=deadline,
                memory_budget_mb=memory_budget_mb, workers=workers,
                hooks=hooks,
            )
        # Harvest: the run's products are exactly what a later call (or the
        # next sweep step) would rebuild — put them where it will look.
        if core_mask is None and "cores" in harvested:
            mask = harvested["cores"]
            self.cache.insert(cores_key, mask, nbytes=mask.nbytes)
        if fresh_structures and hooks.structures:
            self.cache.insert(structures_key, hooks.structures)
        result.meta["engine_cache"] = self.cache.stats()
        return result
