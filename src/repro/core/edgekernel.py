"""Staged, batched resolution of the core-cell graph's edge phase.

The component phase of both grid algorithms must decide, for every
eps-neighbouring pair of core cells, whether the pair is an edge of ``G``
(Lemma 1).  The classic implementation walks the candidate pairs in a
Python loop and pays a full per-pair decision — a BCP computation
(Theorem 2) or a batched Lemma 5 probe (Theorem 4) — plus closure-call
and union-find overhead for *every* pair.  Following the
observation of Wang/Gu/Shun that the edge phase dominates grid DBSCAN and
that only a spanning forest of ``G`` is actually needed, this kernel
settles the bulk of the pairs in two batches, nearest ring first:

* **Batch 1 — inner ring.**  Stage A alone on the pairs of cells at
  Chebyshev distance 1 (the grid's inner ring, the pairs most likely to
  be edges), with its accepts unioned in one batch.
* **Batch 2 — everything else.**  The other pairs whose endpoints are
  already connected (by batch 1, or a pre-union carry) are dropped by
  one vectorised root comparison; the rest run the three stages below.
  Skipping a connected pair never changes the partition.

* **Stage A — quick accept.**  Two cheap geometric certificates, both
  evaluated for all pairs at once, prove an edge without touching the
  full decision procedure: the cells' *representative* core points lie
  within ``eps`` of each other, or the far corners of the cells' core
  bounding boxes do (every cross pair is then within ``eps``).  Both
  certificates exhibit true edges under the exact rule *and* force a yes
  from the rho-approximate rule (a point within ``eps`` is inside the
  Lemma 5 structure's mandatory-yes band), so accepting them is sound for
  both edge predicates.  Accepted edges are merged into an array-backed
  :class:`~repro.utils.unionfind.DenseUnionFind` in one batch of array
  hook-and-compress rounds.

* **Stage B — quick reject.**  Pairs whose core bounding boxes are
  separated by more than the rule's no-band radius — ``eps`` exactly,
  ``eps(1+rho)`` approximately — cannot be edges (exact) or are
  guaranteed a no (approximate): one vectorised box-distance pass
  eliminates them without touching a point.

* **Stage C — spanning-forest-aware survivors.**  The undecided pairs
  whose endpoints stage A's unions already connected are dropped by one
  vectorised root comparison.  Only the rest fall through to the
  per-pair predicate, scheduled cheapest-first (ascending
  ``|c1| * |c2|``, the cost proxy of both BCP and the batched probe)
  with a connectivity re-check before each test: a pair whose endpoints
  an earlier (cheaper) edge already connected contributes nothing to the
  spanning forest and is skipped outright.

Every stage only skips work whose outcome is already determined, so the
resolved component structure — and therefore the final labels, which are
assigned by cell id order — is byte-identical to the per-pair
loop's (kept as the differential oracle in ``tests/oracles/loops.py``).  The kernel reports its funnel through :mod:`repro.grid.counters`
(``edge_*``), which the pipeline publishes under
``meta["kernel_counters"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.geometry import distance as dm
from repro.grid import counters

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
    """Dense per-core-cell arrays for one edge phase, indexed by core cell.

    ``sizes`` counts each core cell's core points, ``reps`` holds one
    representative core point per cell (its first, in ascending index
    order), ``lo`` / ``hi`` the coordinate-wise bounding box of each
    cell's *core* points — tighter than the grid cell itself wherever the
    cell is sparsely occupied.
    """

    sizes: np.ndarray
    reps: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


def cell_arrays(points: np.ndarray, members: np.ndarray, indptr: np.ndarray) -> CellArrays:
    """Dense arrays for the cells whose points are the CSR ``members`` / ``indptr``.

    Two ``reduceat`` passes replace any per-cell Python work: the bounding
    boxes of all cells' core points come out of a single segmented
    min/max over the stacked coordinate block.
    """
    sizes = np.diff(indptr)
    starts = indptr[:-1]
    if len(sizes) == 0:
        box = np.empty((0, points.shape[1]), dtype=np.float64)
        return CellArrays(sizes, starts, box, box.copy())
    block = points[members]
    lo = np.minimum.reduceat(block, starts, axis=0)
    hi = np.maximum.reduceat(block, starts, axis=0)
    return CellArrays(sizes, members[starts], lo, hi)


def quick_accept(
    points: np.ndarray,
    eps: float,
    arrays: CellArrays,
    ii: np.ndarray,
    jj: np.ndarray,
) -> np.ndarray:
    """Stage A alone: the cell pairs ``(ii[t], jj[t])`` proven edges.

    Two certificates, both sound for the exact *and* the approximate
    rule: the cells' representative core points lie within ``eps``, or
    the far corners of their core bounding boxes do (then every cross
    pair is within ``eps``).
    """
    rep_diff = points[arrays.reps[ii]] - points[arrays.reps[jj]]
    accept = np.einsum("ij,ij->i", rep_diff, rep_diff) <= dm.sq_radius(eps)
    if not accept.all():
        # Far-corner certificate: the maximum cross-pair distance is at
        # most eps, so *every* pair qualifies.  Compared against the bare
        # eps^2 (not the slackened boundary) to stay conservative.
        lo_i, hi_i = arrays.lo[ii], arrays.hi[ii]
        lo_j, hi_j = arrays.lo[jj], arrays.hi[jj]
        far = np.maximum(hi_j - lo_i, hi_i - lo_j)
        np.bitwise_or(
            accept, np.einsum("ij,ij->i", far, far) <= eps * eps, out=accept
        )
    return accept


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

    Returns ``(accept, reject)`` boolean masks over the cell pairs
    ``(ii[t], jj[t])``.  ``accept`` marks proven edges
    (:func:`quick_accept`); ``reject`` marks pairs the edge predicate is
    guaranteed to answer no for — separation beyond ``reject_eps``
    (default ``eps``; pass ``eps * (1 + rho)`` for the approximate rule's
    no band).  The masks are disjoint; pairs in neither are stage C's
    survivors.
    """
    sq_reject = dm.sq_radius(eps if reject_eps is None else float(reject_eps))
    sq_reject *= 1.0 + _REJECT_SLACK
    accept = quick_accept(points, eps, arrays, ii, jj)
    gap = np.maximum(arrays.lo[jj] - arrays.hi[ii], 0.0)
    gap += np.maximum(arrays.lo[ii] - arrays.hi[jj], 0.0)
    reject = np.einsum("ij,ij->i", gap, gap) > sq_reject
    reject &= ~accept
    return accept, reject


def resolve_edges(
    points: np.ndarray,
    eps: float,
    arrays: CellArrays,
    ii: np.ndarray,
    jj: np.ndarray,
    inner: np.ndarray,
    uf: "DenseUnionFind",
    edge: Callable[[int, int], bool],
    *,
    reject_eps: Optional[float] = None,
    deadline: Optional["Deadline"] = None,
) -> None:
    """Resolve one batch of candidate pairs into ``uf`` — the edge phase.

    Two batches, nearest ring first.  Batch 1 runs stage A alone on the
    inner-ring pairs (``inner``: Chebyshev-distance-1 cells, the pairs
    most likely to be edges) and unions its accepts.  Batch 2 takes every
    other pair: those whose endpoints ``uf`` already connects (batch 1's
    unions, a pre-union carry) are dropped up front by one vectorised
    root comparison, and the rest run stages A/B (:func:`classify_pairs`)
    and C — the per-pair ``edge`` predicate, cheapest-first with a
    connectivity re-check, so pairs made redundant by earlier unions never
    pay for a test.  Only a spanning forest matters, so skipping a pair
    whose endpoints are already connected never changes the partition.

    ``edge`` takes two cell ids of ``arrays``.  The per-pair orientation
    handed to it is exactly the caller's, so deterministic oriented
    predicates (the Lemma 5 probe) answer as they would in the plain
    loop.
    """
    n_pairs = len(ii)
    counters.add("edge_pairs_total", n_pairs)
    if n_pairs == 0:
        return
    if deadline is not None:
        deadline.check()
    # Funnel accounting: edge_quick_accept (both batches) +
    # edge_quick_reject + edge_survivors + edge_connected_skip ==
    # edge_pairs_total, and edge_survivors == edge_scheduled_skip +
    # edge_predicate_tests.
    near = np.nonzero(inner)[0]
    near = near[quick_accept(points, eps, arrays, ii[near], jj[near])]
    counters.add("edge_quick_accept", len(near))
    if len(near):
        uf.union_many(ii[near], jj[near])
        rest = np.ones(n_pairs, dtype=bool)
        rest[near] = False
        ii, jj = ii[rest], jj[rest]
        if deadline is not None:
            deadline.check()

    roots = uf.roots()
    keep = roots[ii] != roots[jj]
    if not keep.all():
        counters.add("edge_connected_skip", int(len(ii) - int(keep.sum())))
        ii, jj = ii[keep], jj[keep]
    if len(ii) == 0:
        return

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
    skipped = 0
    if accept.any():
        # Survivors stage A's unions already connected would be skipped
        # by the loop's re-check anyway; one root comparison drops them
        # all before any scheduling or per-pair Python work.
        roots = uf.roots()
        open_ = roots[si] != roots[sj]
        skipped = n_survivors - int(open_.sum())
        si, sj = si[open_], sj[open_]
    # Cheapest-first: ascending |c1| * |c2|, the cost proxy of both BCP
    # and the batched Lemma 5 probe.  Stable, so equal-cost pairs keep
    # their candidate order and the schedule is deterministic.
    order = np.argsort(arrays.sizes[si] * arrays.sizes[sj], kind="stable")
    si, sj = si[order].tolist(), sj[order].tolist()
    tests = hits = 0
    for a, b in zip(si, sj):
        if deadline is not None:
            deadline.tick()
        if uf.connected(a, b):
            skipped += 1
            continue
        tests += 1
        if edge(a, b):
            hits += 1
            uf.union(a, b)
    counters.add("edge_scheduled_skip", skipped)
    counters.add("edge_predicate_tests", tests)
    counters.add("edge_predicate_hits", hits)


def apply_preunion_dense(
    uf: "DenseUnionFind", ids: np.ndarray, preunion: Optional[np.ndarray]
) -> None:
    """Seed a dense forest over the cells ``ids`` with known same-component pairs.

    ``preunion`` is a ``(k, 2)`` array of grid cell ids, each pair known
    to lie in one connected component of the graph being built (e.g.
    carried forward from a smaller ``eps`` in a monotone sweep — Theorem
    3: clusters only merge as ``eps`` grows).  Element ``t`` of ``uf`` is
    cell ``ids[t]`` (``ids`` ascending); pairs naming a cell outside
    ``ids`` are skipped.  Seeding same-component pairs never changes the
    final partition or its labels (labels come from id order).
    """
    if preunion is None or len(preunion) == 0 or len(ids) == 0:
        return
    pairs = np.asarray(preunion, dtype=np.int64).reshape(-1, 2)
    pos = np.minimum(np.searchsorted(ids, pairs), len(ids) - 1)
    found = (ids[pos] == pairs).all(axis=1)
    uf.union_many(pos[found, 0], pos[found, 1])
