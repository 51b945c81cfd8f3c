"""The degradation cascade: exact -> rho-approximate -> subsampled.

The paper's practical message, operationalised.  Exact DBSCAN baselines
can blow past any reasonable time budget (the "did not terminate within 12
hours" markers of Section 5.3), while the Sandwich Theorem (Theorem 3)
guarantees that rho-approximate DBSCAN is a *provably bounded* stand-in
for the exact result.  That makes "degrade to the approximation instead of
dying" a correctness-backed strategy:

* **tier 1 — exact**: the Theorem 2 grid algorithm under the time and
  memory budgets;
* **tier 2 — approx**: rho-approximate DBSCAN (Theorem 4) under fresh
  budgets; its clusters sandwich the exact ones between DBSCAN(eps) and
  DBSCAN(eps(1+rho));
* **tier 3 — sampled**: a DBSCAN++-style run (Jang & Jiang, 2019) —
  rho-approximate DBSCAN over a uniform subsample fixes the core
  structure, then every remaining point joins the clusters of sampled
  core points within ``eps``.  Heuristic (no sandwich guarantee), but its
  cost is bounded by the sample size, so as the final tier it runs
  *without* budgets and is guaranteed to return.

:func:`run_resilient` walks the tiers, records every failed attempt plus
the tier finally taken in ``Clustering.meta["resilience"]``, and emits a
WARNING per degradation so operators can see why a run degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.approx import approx_dbscan
from repro.algorithms.exact_grid import exact_grid_dbscan
from repro.core.border import assign_borders
from repro.core.params import ApproxParams
from repro.core.result import Clustering, build_clustering, empty_clustering
from repro.errors import MemoryBudgetExceeded, ParameterError, TimeoutExceeded
from repro.grid.cells import Grid
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger
from repro.utils.rng import make_rng
from repro.utils.validation import as_points

_log = get_logger("runtime.resilient")

#: Tier names in degradation order.
TIERS: Tuple[str, ...] = ("exact", "approx", "sampled")

#: Sandwich-Theorem caveat recorded per tier (see docs/ROBUSTNESS.md).
_GUARANTEES: Dict[str, str] = {
    "exact": "exact DBSCAN result (Problem 1, Theorem 2)",
    "approx": (
        "rho-approximate DBSCAN (Theorem 4): by the Sandwich Theorem "
        "(Theorem 3) every DBSCAN(eps) cluster is contained in a returned "
        "cluster and every returned cluster is contained in a "
        "DBSCAN(eps*(1+rho)) cluster"
    ),
    "sampled": (
        "DBSCAN++-style subsampled heuristic: cores computed on a uniform "
        "sample, remaining points attached to sampled cores within eps; "
        "no sandwich guarantee"
    ),
}


def tier_guarantee(tier: str) -> str:
    """The quality guarantee recorded for ``tier`` (one of :data:`TIERS`).

    Public accessor so other layers (the service's degradation ladder,
    docs tooling) can stamp the same Sandwich-Theorem caveats into their
    response metadata without duplicating the wording.
    """
    if tier not in _GUARANTEES:
        raise ParameterError(f"unknown resilience tier {tier!r}; choose from {TIERS}")
    return _GUARANTEES[tier]


@dataclass(frozen=True)
class ResiliencePolicy:
    """How :func:`run_resilient` degrades under pressure.

    Parameters
    ----------
    time_budget:
        Wall-clock budget in seconds granted to *each* budgeted tier
        (``None`` = unbounded; the cascade then only degrades on memory
        pressure).
    memory_budget_mb:
        RSS budget per budgeted tier (``None`` = unguarded).
    rho:
        Approximation constant for the ``approx`` and ``sampled`` tiers.
    sample_size:
        Maximum number of points the ``sampled`` tier clusters directly.
    tiers:
        The cascade, in order; each entry one of ``("exact", "approx",
        "sampled")``.  The final tier runs without budgets so the cascade
        always returns.
    seed:
        Seed for the subsampling RNG (fixed default keeps reruns
        deterministic).
    checkpoint:
        Optional checkpoint path handed to the budgeted grid tiers, so an
        interrupted run resumes mid-pipeline.
    workers:
        Optional thread count (or a
        :class:`~repro.parallel.ParallelConfig`) handed to the grid tiers
        (``exact`` and ``approx``); each core range polls the deadline
        as the serial count does, so the cascade degrades just as
        promptly under a parallel run.
    """

    time_budget: Optional[float] = None
    memory_budget_mb: Optional[float] = None
    rho: float = 0.001
    sample_size: int = 2000
    tiers: Tuple[str, ...] = TIERS
    seed: Optional[int] = 0
    checkpoint: Optional[str] = None
    workers: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ParameterError("a resilience policy needs at least one tier")
        unknown = [t for t in self.tiers if t not in TIERS]
        if unknown:
            raise ParameterError(f"unknown resilience tiers {unknown}; choose from {TIERS}")
        if int(self.sample_size) < 1:
            raise ParameterError(f"sample_size must be >= 1; got {self.sample_size}")


def run_resilient(
    points,
    eps: float,
    min_pts: int,
    policy: Optional[ResiliencePolicy] = None,
) -> Clustering:
    """Cluster under budgets, degrading instead of dying.

    Walks ``policy.tiers`` in order; a tier that raises
    :class:`~repro.errors.TimeoutExceeded` or
    :class:`~repro.errors.MemoryBudgetExceeded` is logged as a WARNING and
    the next tier is tried with fresh budgets.  The final tier runs
    unbudgeted, so with the default cascade this function always returns a
    labelled :class:`~repro.core.result.Clustering`.  The returned
    ``meta["resilience"]`` names the tier taken, the failed attempts, and
    the quality guarantee (including the Sandwich-Theorem caveat for the
    ``approx`` tier).
    """
    policy = policy or ResiliencePolicy()
    # Validate eps/min_pts once up front so parameter errors surface even
    # for the empty input (and before any tier spends budget).
    params = ApproxParams(eps, min_pts, policy.rho)
    pts = as_points(points, allow_empty=True)
    if len(pts) == 0:
        result = empty_clustering(
            meta={"algorithm": "resilient", "eps": params.eps, "min_pts": params.min_pts}
        )
        result.meta["resilience"] = {
            "tier": policy.tiers[0],
            "attempts": [],
            "guarantee": "empty input: the empty clustering is exact",
        }
        return result

    attempts: List[Dict[str, object]] = []
    for position, tier in enumerate(policy.tiers):
        final_tier = position == len(policy.tiers) - 1
        # The last tier is the safety net: it runs unbudgeted, because a
        # budget there would turn "degraded" into "dead".
        deadline = None if final_tier else Deadline(policy.time_budget)
        memory = None if final_tier else MemoryBudget(policy.memory_budget_mb)
        try:
            result = _run_tier(tier, pts, params, policy, deadline, memory)
        except (TimeoutExceeded, MemoryBudgetExceeded) as exc:
            _log.warning(
                "resilient run: tier %r failed (%s: %s); degrading to %s",
                tier,
                type(exc).__name__,
                exc,
                policy.tiers[position + 1] if not final_tier else "nothing",
            )
            attempts.append(
                {"tier": tier, "error": type(exc).__name__, "detail": str(exc)}
            )
            if final_tier:
                raise
            continue
        if attempts:
            _log.warning(
                "resilient run degraded to tier %r after %d failed attempt(s)",
                tier,
                len(attempts),
            )
        result.meta["resilience"] = {
            "tier": tier,
            "attempts": attempts,
            "guarantee": _GUARANTEES[tier],
            "policy": {
                "time_budget": policy.time_budget,
                "memory_budget_mb": policy.memory_budget_mb,
                "rho": params.rho,
                "sample_size": int(policy.sample_size),
                "tiers": list(policy.tiers),
                "workers": repr(policy.workers),
            },
        }
        return result
    raise AssertionError("unreachable: the final tier either returned or re-raised")


def _run_tier(
    tier: str,
    pts: np.ndarray,
    params: ApproxParams,
    policy: ResiliencePolicy,
    deadline: Optional[Deadline],
    memory: Optional[MemoryBudget],
) -> Clustering:
    if tier == "exact":
        return exact_grid_dbscan(
            pts,
            params.eps,
            params.min_pts,
            deadline=deadline,
            memory=memory,
            checkpoint=policy.checkpoint,
            workers=policy.workers,
        )
    if tier == "approx":
        return approx_dbscan(
            pts,
            params.eps,
            params.min_pts,
            rho=params.rho,
            deadline=deadline,
            memory=memory,
            workers=policy.workers,
        )
    return sampled_dbscan(
        pts,
        params.eps,
        params.min_pts,
        rho=params.rho,
        sample_size=policy.sample_size,
        seed=policy.seed,
        deadline=deadline,
        memory=memory,
    )


def sampled_dbscan(
    points,
    eps: float,
    min_pts: int,
    rho: float = 0.001,
    sample_size: int = 2000,
    seed=None,
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> Clustering:
    """DBSCAN++-style clustering over a uniform subsample.

    Runs rho-approximate DBSCAN on ``min(n, sample_size)`` uniformly
    sampled points to fix the core structure, then assigns *every*
    remaining point to the clusters of sampled core points within ``eps``
    (the border rule of Section 2.2 applied to the whole dataset).
    ``min_pts`` is scaled by the sampling rate — density in the sample is
    proportionally thinner — and the scaled value is recorded in ``meta``.
    """
    params = ApproxParams(eps, min_pts, rho)
    pts = as_points(points, allow_empty=True)
    n = len(pts)
    if n == 0:
        return empty_clustering(
            meta={"algorithm": "sampled", "eps": params.eps, "min_pts": params.min_pts}
        )
    m = min(n, int(sample_size))
    rng = make_rng(seed)
    sample_idx = np.sort(rng.choice(n, size=m, replace=False))
    sampled_min_pts = max(1, int(round(params.min_pts * (m / n))))

    sub = approx_dbscan(
        pts[sample_idx],
        params.eps,
        sampled_min_pts,
        rho=params.rho,
        deadline=deadline,
        memory=memory,
    )

    core_mask = np.zeros(n, dtype=bool)
    core_mask[sample_idx[sub.core_mask]] = True
    core_labels = np.full(n, -1, dtype=np.int64)
    core_labels[sample_idx] = sub.labels

    grid = Grid(pts, params.eps)
    borders = assign_borders(grid, core_mask, core_labels, deadline=deadline)
    return build_clustering(
        n,
        core_mask,
        core_labels,
        borders,
        meta={
            "algorithm": "sampled",
            "eps": params.eps,
            "min_pts": params.min_pts,
            "rho": params.rho,
            "sample_size": m,
            "sampled_min_pts": sampled_min_pts,
            "n_clusters_on_sample": sub.n_clusters,
        },
    )
