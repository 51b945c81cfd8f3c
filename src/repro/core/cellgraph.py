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

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline

from repro.core.edgekernel import apply_preunion_dense, cell_arrays, resolve_edges
from repro.errors import ParameterError
from repro.geometry import distance as dm
from repro.geometry.bcp import bcp_within
from repro.grid.cells import CellCoord, Grid
from repro.grid.hierarchy import FlatHierarchy
from repro.index.kdtree import KDTree
from repro.utils.unionfind import DenseUnionFind


def core_cells(grid: Grid, core_mask: np.ndarray) -> Dict[CellCoord, np.ndarray]:
    """Map each core cell to the indices of its core points."""
    out: Dict[CellCoord, np.ndarray] = {}
    for cell, idx in grid.cells.items():
        cores = idx[core_mask[idx]]
        if len(cores):
            out[cell] = cores
    return out


def exact_edge_predicate(
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    bcp_strategy: str = "auto",
    structures: Optional[Dict[CellCoord, object]] = None,
):
    """Build the exact edge test ``edge(c1, c2) -> bool`` over core cells.

    The closure is a *pure, deterministic* function of ``(grid, cells)``,
    so the staged kernel may skip any pair a spanning subset of the true
    edges already connects without changing the components.  Per-cell
    search structures (kd-trees, Voronoi diagrams) are cached inside the
    closure and reused across calls.

    ``structures`` optionally seeds that per-cell cache — the same seam
    :func:`approx_edge_predicate` offers for Lemma 5 structures, used by
    the clustering engine's :class:`StructureCache` so warm service
    requests stop rebuilding trees.  The dict is updated in place with any
    structures built lazily, letting the caller harvest them afterwards.
    It is ignored by the pairwise ``bcp_strategy`` modes, which keep no
    per-cell state.
    """
    points = grid.points
    if bcp_strategy == "kdtree":
        # Gunawan-style: one search structure per core cell, reused across
        # all of the cell's pairs (instead of a fresh BCP per pair).
        trees: Dict[CellCoord, KDTree] = (
            {} if structures is None else structures  # type: ignore[assignment]
        )
        sq_eps = dm.sq_radius(grid.eps)

        def edge(c1: CellCoord, c2: CellCoord) -> bool:
            # Query from the smaller cell into the larger cell's tree.
            if len(cells[c1]) > len(cells[c2]):
                c1, c2 = c2, c1
            tree = trees.get(c2)
            if tree is None:
                tree = trees[c2] = KDTree(points[cells[c2]])
            for p in points[cells[c1]]:
                idx, _sq = tree.nearest(p, bound_sq=sq_eps)
                if idx >= 0:
                    return True
            return False
    elif bcp_strategy == "voronoi":
        # Gunawan's verbatim 2D machinery: a Voronoi diagram (Delaunay
        # dual) per core cell, nearest neighbours by greedy walking.
        from repro.geometry.delaunay import VoronoiNN

        if grid.dim != 2:
            raise ParameterError("the voronoi edge strategy requires 2-D points")
        diagrams: Dict[CellCoord, VoronoiNN] = (
            {} if structures is None else structures  # type: ignore[assignment]
        )

        def edge(c1: CellCoord, c2: CellCoord) -> bool:
            if len(cells[c1]) > len(cells[c2]):
                c1, c2 = c2, c1
            diagram = diagrams.get(c2)
            if diagram is None:
                diagram = diagrams[c2] = VoronoiNN(points[cells[c2]])
            return any(
                diagram.nearest_within(p, grid.eps) for p in points[cells[c1]]
            )
    else:
        def edge(c1: CellCoord, c2: CellCoord) -> bool:
            return bcp_within(
                points[cells[c1]], points[cells[c2]], grid.eps, strategy=bcp_strategy
            )

    return edge


def approx_edge_predicate(
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    rho: float,
    exact_leaf_size: int | None = None,
    structures: Optional[Dict[CellCoord, FlatHierarchy]] = None,
    deadline: Optional["Deadline"] = None,
):
    """Build the rho-approximate edge test ``edge(c1, c2) -> bool``.

    Queries the Lemma 5 structure of ``c2`` with the core points of ``c1``
    under the paper's yes / no / don't-care contract — *all* of ``c1``'s
    core points in a single batched :meth:`FlatHierarchy.any_contains`
    call, which short-circuits the moment any query is decided yes.  The
    answer for an *oriented* pair is deterministic (the structure build
    is), which is why every run agrees with the per-pair loop exactly as
    long as pairs are evaluated in the orientation
    :meth:`Grid.neighbor_cell_pairs` emits them.

    ``structures`` optionally seeds the per-cell structure cache (the
    engine's warm cache); missing entries are built lazily, only for the
    cells a per-pair probe actually touches.  A bounded ``deadline`` is handed to every
    batched query, so even one pathologically large edge test is cancelled
    promptly.
    """
    points = grid.points
    kwargs = {} if exact_leaf_size is None else {"exact_leaf_size": exact_leaf_size}
    cache: Dict[CellCoord, FlatHierarchy] = {} if structures is None else structures

    def edge(c1: CellCoord, c2: CellCoord) -> bool:
        structure = cache.get(c2)
        if structure is None:
            structure = cache[c2] = FlatHierarchy(
                points[cells[c2]], grid.eps, rho, **kwargs
            )
        return structure.any_contains(points[cells[c1]], deadline=deadline)

    return edge


def _connected_components(
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    edge,
    *,
    reject_eps: Optional[float] = None,
    deadline: Optional["Deadline"] = None,
    preunion: Optional[List[Tuple[CellCoord, CellCoord]]] = None,
) -> Tuple[np.ndarray, int]:
    """Run the staged edge kernel over ``cells`` and scatter labels.

    The shared back half of :func:`exact_components` /
    :func:`approx_components`: dense per-cell arrays, a
    :class:`DenseUnionFind` seeded with the pre-union carry, one
    :func:`resolve_edges` pass over all candidate pairs, and a single
    vectorised label scatter (see :mod:`repro.core.edgekernel`).
    """
    arrays = cell_arrays(grid.points, cells)
    uf = DenseUnionFind(len(arrays))
    apply_preunion_dense(uf, arrays.index, preunion)
    keys, ii, jj = grid.neighbor_cell_pair_arrays(subset=cells.keys())
    if keys != arrays.keys:  # pragma: no cover - orders coincide in practice
        remap = np.fromiter(
            (arrays.index[c] for c in keys), dtype=np.int64, count=len(keys)
        )
        ii, jj = remap[ii], remap[jj]
    resolve_edges(
        grid.points,
        grid.eps,
        arrays,
        ii,
        jj,
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
    preunion: Optional[List[Tuple[CellCoord, CellCoord]]] = None,
    structures: Optional[Dict[CellCoord, object]] = None,
) -> Tuple[np.ndarray, int]:
    """Connected components of the exact graph ``G``.

    Returns ``(labels, k)``: a dense component id per point (valid only at
    core positions; ``-1`` elsewhere) and the number of components ``k``.
    ``deadline`` is polled between the kernel's batched stages and before
    each surviving per-pair BCP computation.  ``preunion`` optionally
    seeds the union-find with known-true edges — pairs already known to
    lie in one component of ``G`` (e.g. carried from a smaller ``eps`` in
    a monotone sweep: Theorem 3, clusters only merge as ``eps`` grows);
    seeded pairs short-circuit their BCP tests without changing the
    result.  ``structures`` seeds the per-cell search-structure cache
    (:func:`exact_edge_predicate`).
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
    preunion: Optional[List[Tuple[CellCoord, CellCoord]]] = None,
    structures: Optional[Dict[CellCoord, FlatHierarchy]] = None,
) -> Tuple[np.ndarray, int]:
    """Connected components of the rho-approximate graph ``G``.

    For every eps-neighbouring pair of core cells, queries the Lemma 5
    structure of one cell with *all* the core points of the other in one
    batched call; a yes adds the edge.  The resulting components satisfy
    Definition 5 (see the correctness argument in Section 4.4).

    ``preunion`` seeds known-true edges (as in :func:`exact_components`);
    ``structures`` seeds the per-cell Lemma 5 structure map — cells already
    present are not rebuilt, and the map is updated in place so a caller
    (the clustering engine) can keep it warm across runs.  Lemma 5
    structures are built *lazily* — only for cells that actually reach a
    per-pair probe — so cells settled entirely by the vectorised stages
    never pay for a structure build.
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
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    uf: DenseUnionFind,
) -> Tuple[np.ndarray, int]:
    """Per-point labels from a dense forest over ``cells`` in id order.

    ``uf``'s element ``t`` must be the ``t``-th cell of ``cells`` in
    insertion order; labels are assigned by first appearance in id order,
    so any forest with the same partition labels identically.  One ``np.repeat`` + fancy-index
    assignment, no per-cell Python loop.
    """
    labels = np.full(len(grid.points), -1, dtype=np.int64)
    if cells:
        sizes = np.fromiter(
            (len(idx) for idx in cells.values()), dtype=np.int64, count=len(cells)
        )
        labels[np.concatenate(list(cells.values()))] = np.repeat(
            uf.component_labels(), sizes
        )
    return labels, uf.n_components
