"""The core-cell graph ``G = (V, E)`` and its connected components.

``V`` is the set of *core cells* (cells covering at least one core point).
The paper gives two edge rules:

* **exact** (Sections 2.2 / 3.2): cells ``c1, c2`` are adjacent iff some
  pair of core points ``p1 in c1, p2 in c2`` satisfies
  ``dist(p1, p2) <= eps`` — decided with a Bichromatic Closest Pair
  computation per eps-neighbouring core-cell pair;

* **rho-approximate** (Section 4.4): *yes* if core points within ``eps``
  exist, *no* if none within ``eps(1+rho)``, *don't care* otherwise —
  decided with approximate range-count queries against a Lemma 5 structure
  built on each core cell's core points.

By Lemma 1, the connected components of ``G`` are exactly the clusters
restricted to core points, so both builders return per-core-point component
labels directly.

Both builders resolve the edge phase through the staged, batched kernel of
:mod:`repro.core.edgekernel`: vectorised quick-accept / quick-reject passes
over dense cell ids settle most pairs without a per-pair decision, and
only the survivors run BCP / :meth:`FlatHierarchy.any_contains`,
cheapest-first with a spanning-forest early exit.  The classic per-pair
loop this replaced is kept as the differential oracle in
``tests/oracles/loops.py``; the labels are byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline

from repro.core.edgekernel import apply_preunion_dense, cell_arrays, resolve_edges
from repro.errors import ParameterError
from repro.geometry import distance as dm
from repro.geometry.bcp import bcp_within
from repro.grid.cells import Grid
from repro.grid.hierarchy import FlatHierarchy
from repro.index.kdtree import KDTree
from repro.utils.unionfind import DenseUnionFind


@dataclass
class CoreCells:
    """The core cells of a grid and their core points, in CSR form.

    ``ids`` are the grid cell ids of the core cells (ascending); core cell
    ``t`` — position ``t``, the id the edge kernel and the edge
    predicates use — holds the core points
    ``members[indptr[t] : indptr[t + 1]]`` (ascending).
    """

    ids: np.ndarray
    indptr: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def of(self, t: int) -> np.ndarray:
        """Core point indices of core cell ``t``."""
        return self.members[self.indptr[t]:self.indptr[t + 1]]


def core_cells(grid: Grid, core_mask: np.ndarray) -> CoreCells:
    """The cells covering at least one core point, with those core points."""
    members = grid.order[core_mask[grid.order]]
    counts = np.bincount(grid.point_cell[members], minlength=len(grid))
    ids = np.flatnonzero(counts)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts[ids], out=indptr[1:])
    return CoreCells(ids, indptr, members)


def exact_edge_predicate(
    grid: Grid,
    cells: CoreCells,
    bcp_strategy: str = "auto",
    structures: Optional[Dict[int, object]] = None,
):
    """Build the exact edge test ``edge(a, b) -> bool`` over core cells.

    ``a`` and ``b`` are positions in ``cells``.  The closure is a *pure,
    deterministic* function of ``(grid, cells)``, so the staged kernel may
    skip any pair a spanning subset of the true edges already connects
    without changing the components.  Per-cell search structures
    (kd-trees, Voronoi diagrams) are cached inside the closure, keyed by
    grid cell id, and reused across calls.

    ``structures`` optionally seeds that per-cell cache — the same seam
    :func:`approx_edge_predicate` offers for Lemma 5 structures, used by
    the clustering engine's :class:`StructureCache` so warm service
    requests stop rebuilding trees.  The dict is updated in place with any
    structures built lazily, letting the caller harvest them afterwards.
    It is ignored by the pairwise ``bcp_strategy`` modes, which keep no
    per-cell state.
    """
    points = grid.points
    sizes = np.diff(cells.indptr)
    if bcp_strategy in ("kdtree", "voronoi"):
        # Gunawan-style: one search structure per core cell, reused across
        # all of the cell's pairs (instead of a fresh BCP per pair); the
        # query runs from the smaller cell into the larger cell's
        # structure.
        if bcp_strategy == "kdtree":
            sq_eps = dm.sq_radius(grid.eps)

            def build(pts):
                return KDTree(pts)

            def near(structure, p) -> bool:
                return structure.nearest(p, bound_sq=sq_eps)[0] >= 0
        else:
            # Gunawan's verbatim 2D machinery: a Voronoi diagram (Delaunay
            # dual) per core cell, nearest neighbours by greedy walking.
            from repro.geometry.delaunay import VoronoiNN

            if grid.dim != 2:
                raise ParameterError("the voronoi edge strategy requires 2-D points")

            def build(pts):
                return VoronoiNN(pts)

            def near(structure, p) -> bool:
                return structure.nearest_within(p, grid.eps)

        cache: Dict[int, object] = {} if structures is None else structures

        def edge(a: int, b: int) -> bool:
            if sizes[a] > sizes[b]:
                a, b = b, a
            key = int(cells.ids[b])
            structure = cache.get(key)
            if structure is None:
                structure = cache[key] = build(points[cells.of(b)])
            return any(near(structure, p) for p in points[cells.of(a)])
    else:
        def edge(a: int, b: int) -> bool:
            return bcp_within(
                points[cells.of(a)], points[cells.of(b)], grid.eps, strategy=bcp_strategy
            )

    return edge


def approx_edge_predicate(
    grid: Grid,
    cells: CoreCells,
    rho: float,
    exact_leaf_size: int | None = None,
    structures: Optional[Dict[int, FlatHierarchy]] = None,
    deadline: Optional["Deadline"] = None,
):
    """Build the rho-approximate edge test ``edge(a, b) -> bool``.

    Queries the Lemma 5 structure of core cell ``b`` with the core points
    of ``a`` (positions in ``cells``) under the paper's yes / no /
    don't-care contract — *all* of ``a``'s core points in a single
    batched :meth:`FlatHierarchy.any_contains` call, which
    short-circuits the moment any query is decided yes.  The answer for
    an *oriented* pair is deterministic (the structure build is), which
    is why every run agrees with the per-pair loop exactly as long as
    pairs are evaluated smaller cell id first, as the edge kernel does.

    ``structures`` optionally seeds the per-cell structure cache, keyed by
    grid cell id (the engine's warm cache); missing entries are built
    lazily, only for the cells a per-pair probe actually touches.  A
    bounded ``deadline`` is handed to every batched query, so even one
    pathologically large edge test is cancelled promptly.
    """
    points = grid.points
    kwargs = {} if exact_leaf_size is None else {"exact_leaf_size": exact_leaf_size}
    cache: Dict[int, FlatHierarchy] = {} if structures is None else structures

    def edge(a: int, b: int) -> bool:
        key = int(cells.ids[b])
        structure = cache.get(key)
        if structure is None:
            structure = cache[key] = FlatHierarchy(
                points[cells.of(b)], grid.eps, rho, **kwargs
            )
        return structure.any_contains(points[cells.of(a)], deadline=deadline)

    return edge


def _connected_components(
    grid: Grid,
    cells: CoreCells,
    edge,
    *,
    reject_eps: Optional[float] = None,
    deadline: Optional["Deadline"] = None,
    preunion: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Run the staged edge kernel over ``cells`` and scatter labels.

    The shared back half of :func:`exact_components` /
    :func:`approx_components`: dense per-cell arrays, a
    :class:`DenseUnionFind` seeded with the pre-union carry, one
    :func:`resolve_edges` pass over the grid's CSR adjacency, and a
    single vectorised label scatter (see :mod:`repro.core.edgekernel`).
    """
    arrays = cell_arrays(grid.points, cells.members, cells.indptr)
    uf = DenseUnionFind(len(cells))
    apply_preunion_dense(uf, cells.ids, preunion)
    resolve_edges(
        grid.points,
        grid.eps,
        arrays,
        cells.ids,
        grid.adjacency(),
        uf,
        edge,
        reject_eps=reject_eps,
        deadline=deadline,
    )
    return labels_from_dense(grid, cells, uf)


def exact_components(
    grid: Grid,
    core_mask: np.ndarray,
    bcp_strategy: str = "auto",
    *,
    deadline: Optional["Deadline"] = None,
    preunion: Optional[np.ndarray] = None,
    structures: Optional[Dict[int, object]] = None,
) -> Tuple[np.ndarray, int]:
    """Connected components of the exact graph ``G``.

    Returns ``(labels, k)``: a dense component id per point (valid only at
    core positions; ``-1`` elsewhere) and the number of components ``k``.
    ``deadline`` is polled between the kernel's batched stages and before
    each surviving per-pair BCP computation.  ``preunion`` optionally
    seeds the union-find with known-true edges — a ``(k, 2)`` array of
    grid cell ids already known to lie in one component of ``G`` (e.g.
    carried from a smaller ``eps`` in a monotone sweep: Theorem 3,
    clusters only merge as ``eps`` grows); seeded pairs short-circuit
    their BCP tests without changing the result.  ``structures`` seeds the
    per-cell search-structure cache (:func:`exact_edge_predicate`).
    """
    cells = core_cells(grid, core_mask)
    edge = exact_edge_predicate(grid, cells, bcp_strategy, structures=structures)
    return _connected_components(grid, cells, edge, deadline=deadline, preunion=preunion)


def approx_components(
    grid: Grid,
    core_mask: np.ndarray,
    rho: float,
    exact_leaf_size: int | None = None,
    *,
    deadline: Optional["Deadline"] = None,
    preunion: Optional[np.ndarray] = None,
    structures: Optional[Dict[int, FlatHierarchy]] = None,
) -> Tuple[np.ndarray, int]:
    """Connected components of the rho-approximate graph ``G``.

    For every eps-neighbouring pair of core cells, queries the Lemma 5
    structure of one cell with *all* the core points of the other in one
    batched call; a yes adds the edge.  The resulting components satisfy
    Definition 5 (see the correctness argument in Section 4.4).

    ``preunion`` seeds known-true edges (as in :func:`exact_components`);
    ``structures`` seeds the per-cell Lemma 5 structure map, keyed by grid
    cell id — cells already present are not rebuilt, and the map is
    updated in place so a caller (the clustering engine) can keep it warm
    across runs.  Lemma 5 structures are built *lazily* — only for cells
    that actually reach a per-pair probe — so cells settled entirely by
    the vectorised stages never pay for a structure build.
    """
    cells = core_cells(grid, core_mask)
    edge = approx_edge_predicate(
        grid, cells, rho, exact_leaf_size, structures=structures, deadline=deadline
    )
    return _connected_components(
        grid,
        cells,
        edge,
        reject_eps=grid.eps * (1.0 + rho),
        deadline=deadline,
        preunion=preunion,
    )


def labels_from_dense(
    grid: Grid, cells: CoreCells, uf: DenseUnionFind
) -> Tuple[np.ndarray, int]:
    """Per-point labels from a dense forest over ``cells``.

    ``uf``'s element ``t`` must be core cell ``t``; labels are assigned by
    first appearance in id order, so any forest with the same partition
    labels identically.  One scatter through the CSR, no per-cell loop.
    """
    labels = np.full(len(grid.points), -1, dtype=np.int64)
    labels[cells.members] = np.repeat(uf.component_labels(), np.diff(cells.indptr))
    return labels, uf.n_components
