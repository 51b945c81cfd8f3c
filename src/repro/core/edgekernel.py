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
  be edges), gathered from the core rows' inner-ring CSR entries, with
  its accepts unioned in one batch.
* **Batch 2 — everything else.**  A walk over the CSR adjacency in row
  blocks drops every pair whose endpoints are already connected (by
  batch 1, or a pre-union carry) with one vectorised root comparison
  per block, before any pair array exists; the open pairs run the three
  stages below.  Skipping a connected pair never changes the partition.

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
from repro.grid.cells import _EMPTY_IDX, _take_ranges

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.grid.cells import _CSRAdjacency
    from repro.runtime.deadline import Deadline
    from repro.utils.unionfind import DenseUnionFind

#: Relative slack inflating the quick-reject boundary beyond the shared
#: ``sq_radius`` decision boundary.  Rejection must be strictly
#: conservative: a pair sitting numerically *on* the no-band boundary
#: falls through to the per-pair predicate (stage C) instead of being
#: rejected, so the staged kernel can never disagree with the predicate
#: it is short-circuiting.
_REJECT_SLACK = 1e-9

#: Adjacency entries per row block of batch 2's root filter: the block's
#: source, partner and mask arrays stay a few MB whatever the grid.
_EDGE_BLOCK = 1 << 18


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
    reps = points[arrays.reps]  # one row per cell: the gathers stay in cache
    rep_diff = reps[ii] - reps[jj]
    accept = np.einsum("ij,ij->i", rep_diff, rep_diff) <= dm.sq_radius(eps)
    rest = np.flatnonzero(~accept)
    if len(rest):
        # Far-corner certificate: the maximum cross-pair distance is at
        # most eps, so *every* pair qualifies.  Compared against the bare
        # eps^2 (not the slackened boundary) to stay conservative.
        i, j = ii[rest], jj[rest]
        far = np.maximum(arrays.hi[j] - arrays.lo[i], arrays.hi[i] - arrays.lo[j])
        accept[rest] = np.einsum("ij,ij->i", far, far) <= eps * eps
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
    ids: np.ndarray,
    adjacency: "_CSRAdjacency",
    uf: "DenseUnionFind",
    edge: Callable[[int, int], bool],
    *,
    reject_eps: Optional[float] = None,
    deadline: Optional["Deadline"] = None,
) -> None:
    """Resolve the edge phase of the core cells ``ids`` into ``uf``.

    ``ids`` are the core cells' grid ids, ascending: element ``t`` of
    ``arrays`` and ``uf`` is cell ``ids[t]``.  The candidate pairs are
    the entries ``a -> b`` of the grid's CSR ``adjacency`` between two
    core cells with ``b > a``, read straight off the CSR.  Two batches,
    nearest ring first.  Batch 1 gathers the core rows' inner-ring
    entries (Chebyshev-distance-1 cells, the pairs most likely to be
    edges), runs stage A alone on them and unions its accepts.  Batch 2
    walks the whole CSR in row blocks of about ``_EDGE_BLOCK`` entries
    and drops every pair whose endpoints ``uf`` already connects (batch
    1's unions, a pre-union carry) by comparing roots before any pair
    array is built; the open pairs run stages A/B
    (:func:`classify_pairs`) and C — the per-pair ``edge`` predicate,
    cheapest-first with a connectivity re-check, so pairs made redundant
    by earlier unions never pay for a test.  Only a spanning forest
    matters, so skipping a pair whose endpoints are already connected
    never changes the partition.

    ``edge`` takes two positions in ``ids``, smaller cell id first — the
    orientation of the per-pair loop, so deterministic oriented
    predicates (the Lemma 5 probe) answer as they would there.
    """
    if deadline is not None:
        deadline.check()
    # Funnel accounting: edge_quick_accept (both batches) +
    # edge_quick_reject + edge_survivors + edge_connected_skip ==
    # edge_pairs_total, and edge_survivors == edge_scheduled_skip +
    # edge_predicate_tests.
    indptr, indices = adjacency.indptr, adjacency.indices
    pos = np.full(len(adjacency.inner), -1, dtype=indices.dtype)
    pos[ids] = np.arange(len(ids))
    inner = adjacency.inner[ids]
    ii = np.repeat(np.arange(len(ids)), inner)
    jj = pos[_take_ranges(indices, indptr[ids], inner)]
    pair = jj > ii
    ii, jj = ii[pair], jj[pair]
    near = quick_accept(points, eps, arrays, ii, jj)
    n_near = int(near.sum())
    counters.add("edge_quick_accept", n_near)
    uf.union_many(ii[near], jj[near])

    # Batch 2.  A non-core row gets a position past every core one, so
    # ``jj > ii`` keeps exactly the core pairs with ``b > a``; a root
    # comparison then keeps the open ones.
    roots = uf.roots()
    row_pos = np.where(pos < 0, len(ids), pos)
    open_i, open_j = [_EMPTY_IDX], [_EMPTY_IDX]
    n_pairs = lo = 0
    while lo < len(row_pos):
        if deadline is not None:
            deadline.check()
        hi = int(np.searchsorted(indptr, indptr[lo] + _EDGE_BLOCK, side="right")) - 1
        hi = min(len(row_pos), max(lo + 1, hi))
        ii = np.repeat(row_pos[lo:hi], np.diff(indptr[lo:hi + 1]))
        jj = pos[indices[indptr[lo]:indptr[hi]]]
        pair = jj > ii
        ii, jj = ii[pair], jj[pair]
        n_pairs += len(ii)
        keep = roots[ii] != roots[jj]
        open_i.append(ii[keep])
        open_j.append(jj[keep])
        lo = hi
    ii, jj = np.concatenate(open_i), np.concatenate(open_j)
    counters.add("edge_pairs_total", n_pairs)
    counters.add("edge_connected_skip", n_pairs - n_near - len(ii))
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
