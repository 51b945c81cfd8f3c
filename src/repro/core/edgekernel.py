"""Staged, batched resolution of the core-cell graph's edge phase.

The component phase of both grid algorithms must decide, for every
eps-neighbouring pair of core cells, whether the pair is an edge of ``G``
(Lemma 1).  The classic implementation walks the candidate pairs in a
Python loop and pays a full per-pair decision — a BCP computation
(Theorem 2) or a batched Lemma 5 probe (Theorem 4) — plus closure-call,
tuple-hash and union-find overhead for *every* pair.  Following the
observation of Wang/Gu/Shun that the edge phase dominates grid DBSCAN and
that only a spanning forest of ``G`` is actually needed, this kernel
settles the bulk of the pairs with three staged, vectorised passes:

* **Stage A — quick accept.**  Two cheap geometric certificates, both
  evaluated for all pairs at once, prove an edge without touching the
  full decision procedure: the cells' *representative* core points lie
  within ``eps`` of each other, or the far corners of the cells' core
  bounding boxes do (every cross pair is then within ``eps``).  Both
  certificates exhibit true edges under the exact rule *and* force a yes
  from the rho-approximate rule (a point within ``eps`` is inside the
  Lemma 5 structure's mandatory-yes band), so accepting them is sound for
  both edge predicates.  Accepted edges are merged into an array-backed
  :class:`~repro.utils.unionfind.DenseUnionFind` in one batch.

* **Stage B — quick reject.**  Pairs whose core bounding boxes are
  separated by more than the rule's no-band radius — ``eps`` exactly,
  ``eps(1+rho)`` approximately — cannot be edges (exact) or are
  guaranteed a no (approximate): one vectorised box-distance pass
  eliminates them without touching a point.

* **Stage C — spanning-forest-aware survivors.**  Only the undecided
  pairs fall through to the per-pair predicate, scheduled cheapest-first
  (ascending ``|c1| * |c2|``, the cost proxy of both BCP and the batched
  probe) with a connectivity re-check before each test: a pair whose
  endpoints an earlier (cheaper) edge already connected contributes
  nothing to the spanning forest and is skipped outright.

Every stage only skips work whose outcome is already determined, so the
resolved component structure — and therefore the final labels, which are
assigned by cell insertion order — is byte-identical to the per-pair
loop's (kept as the differential oracle in ``tests/oracles/loops.py``).  The kernel reports its funnel through :mod:`repro.grid.counters`
(``edge_*``), which the pipeline publishes under
``meta["kernel_counters"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.cells import CellCoord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline
    from repro.utils.unionfind import DenseUnionFind

#: Relative slack inflating the quick-reject boundary beyond the shared
#: ``sq_radius`` decision boundary.  Rejection must be strictly
#: conservative: a pair sitting numerically *on* the no-band boundary
#: falls through to the per-pair predicate (stage C) instead of being
#: rejected, so the staged kernel can never disagree with the predicate
#: it is short-circuiting.
_REJECT_SLACK = 1e-9


@dataclass
class CellArrays:
    """Dense per-core-cell arrays for one edge phase.

    The tuple-keyed ``cells`` dict is consulted once, here; every kernel
    stage afterwards works on dense int ids (positions in ``keys``).
    ``reps`` holds one representative core point per cell (its first, in
    the deterministic per-cell index order), ``lo`` / ``hi`` the
    coordinate-wise bounding box of each cell's *core* points — tighter
    than the grid cell itself wherever the cell is sparsely occupied.
    """

    keys: List[CellCoord]
    index: Dict[CellCoord, int]
    sizes: np.ndarray
    reps: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def cell_arrays(points: np.ndarray, cells: Dict[CellCoord, np.ndarray]) -> CellArrays:
    """Build the dense per-cell arrays for ``cells`` (insertion order).

    One concatenation + two ``reduceat`` passes replace any per-cell
    Python work: the bounding boxes of all cells' core points come out of
    a single segmented min/max over the stacked coordinate block.
    """
    keys = list(cells.keys())
    m = len(keys)
    index = {c: t for t, c in enumerate(keys)}
    d = points.shape[1] if points.ndim == 2 else 0
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        box = np.empty((0, d), dtype=np.float64)
        return CellArrays(keys, index, empty, empty.copy(), box, box.copy())
    sizes = np.fromiter((len(cells[c]) for c in keys), dtype=np.int64, count=m)
    cat = np.concatenate([cells[c] for c in keys])
    offsets = np.zeros(m, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    block = points[cat]
    lo = np.minimum.reduceat(block, offsets, axis=0)
    hi = np.maximum.reduceat(block, offsets, axis=0)
    reps = cat[offsets]
    return CellArrays(keys, index, sizes, reps, lo, hi)


def classify_pairs(
    points: np.ndarray,
    eps: float,
    arrays: CellArrays,
    ii: np.ndarray,
    jj: np.ndarray,
    *,
    reject_eps: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stage A / B verdicts for a batch of candidate pairs, vectorised.

    Returns ``(accept, reject)`` boolean masks over the pairs
    ``(keys[ii[t]], keys[jj[t]])``.  ``accept`` marks proven edges (both
    certificates are sound for the exact *and* the approximate rule);
    ``reject`` marks pairs the edge predicate is guaranteed to answer no
    for — separation beyond ``reject_eps`` (default ``eps``; pass
    ``eps * (1 + rho)`` for the approximate rule's no band).  The masks
    are disjoint; pairs in neither are stage C's survivors.
    """
    sq_accept = dm.sq_radius(eps)
    sq_reject = dm.sq_radius(eps if reject_eps is None else float(reject_eps))
    sq_reject *= 1.0 + _REJECT_SLACK

    rep_diff = points[arrays.reps[ii]] - points[arrays.reps[jj]]
    accept = np.einsum("ij,ij->i", rep_diff, rep_diff) <= sq_accept

    lo_i, hi_i = arrays.lo[ii], arrays.hi[ii]
    lo_j, hi_j = arrays.lo[jj], arrays.hi[jj]
    gap = np.maximum(lo_j - hi_i, 0.0) + np.maximum(lo_i - hi_j, 0.0)
    reject = np.einsum("ij,ij->i", gap, gap) > sq_reject

    if not accept.all():
        # Far-corner certificate: the maximum cross-pair distance is at
        # most eps, so *every* pair qualifies.  Compared against the bare
        # eps^2 (not the slackened boundary) to stay conservative.
        far = np.maximum(hi_j - lo_i, hi_i - lo_j)
        np.bitwise_or(
            accept, np.einsum("ij,ij->i", far, far) <= eps * eps, out=accept
        )
    reject &= ~accept
    return accept, reject


def resolve_edges(
    points: np.ndarray,
    eps: float,
    arrays: CellArrays,
    ii: np.ndarray,
    jj: np.ndarray,
    uf: "DenseUnionFind",
    edge: Callable[[CellCoord, CellCoord], bool],
    *,
    reject_eps: Optional[float] = None,
    deadline: Optional["Deadline"] = None,
) -> None:
    """Resolve one batch of candidate pairs into ``uf`` — the edge phase.

    Stages A/B settle the bulk of ``(ii, jj)`` with vectorised
    certificates (:func:`classify_pairs`); the survivors run the per-pair
    ``edge`` predicate cheapest-first with a connectivity re-check, so
    pairs made redundant by earlier unions never pay for a test.  Pairs
    whose endpoints ``uf`` already connects (a pre-union carry, or earlier
    batches) are dropped up front by one vectorised root comparison.

    The per-pair orientation handed to ``edge`` is exactly the caller's,
    so deterministic oriented predicates (the Lemma 5 probe) answer as
    they would in the plain loop.
    """
    n_pairs = len(ii)
    counters.add("edge_pairs_total", n_pairs)
    if n_pairs == 0:
        return
    if deadline is not None:
        deadline.check()

    roots = uf.roots()
    keep = roots[ii] != roots[jj]
    if not keep.all():
        counters.add("edge_connected_skip", int(n_pairs - int(keep.sum())))
        ii, jj = ii[keep], jj[keep]

    accept, reject = classify_pairs(
        points, eps, arrays, ii, jj, reject_eps=reject_eps
    )
    counters.add("edge_quick_accept", int(accept.sum()))
    counters.add("edge_quick_reject", int(reject.sum()))
    if accept.any():
        uf.union_many(ii[accept], jj[accept])

    survive = ~(accept | reject)
    n_survivors = int(survive.sum())
    counters.add("edge_survivors", n_survivors)
    if not n_survivors:
        return
    si, sj = ii[survive], jj[survive]
    # Cheapest-first: ascending |c1| * |c2|, the cost proxy of both BCP
    # and the batched Lemma 5 probe.  Stable, so equal-cost pairs keep
    # their candidate order and the schedule is deterministic.
    order = np.argsort(arrays.sizes[si] * arrays.sizes[sj], kind="stable")
    si, sj = si[order].tolist(), sj[order].tolist()
    keys = arrays.keys
    # Funnel accounting: edge_quick_accept + edge_quick_reject +
    # edge_survivors + edge_connected_skip == edge_pairs_total, and
    # edge_survivors == edge_scheduled_skip + edge_predicate_tests.
    tests = hits = skipped = 0
    for a, b in zip(si, sj):
        if deadline is not None:
            deadline.tick()
        if uf.connected(a, b):
            skipped += 1
            continue
        tests += 1
        if edge(keys[a], keys[b]):
            hits += 1
            uf.union(a, b)
    counters.add("edge_scheduled_skip", skipped)
    counters.add("edge_predicate_tests", tests)
    counters.add("edge_predicate_hits", hits)


def apply_preunion_dense(
    uf: "DenseUnionFind",
    index: Dict[CellCoord, int],
    preunion,
) -> None:
    """Seed a dense forest with known same-component cell pairs.

    Each ``preunion`` pair must lie in one connected component of the
    graph being built (e.g. carried forward from a smaller ``eps`` in a
    monotone sweep — Theorem 3: clusters only merge as ``eps`` grows).
    Pairs naming cells outside ``index`` are skipped, and seeding
    same-component pairs never changes the final partition or its labels
    (labels come from id order, fixed at construction).
    """
    if not preunion:
        return
    for c1, c2 in preunion:
        i = index.get(c1)
        j = index.get(c2)
        if i is not None and j is not None:
            uf.union(i, j)
