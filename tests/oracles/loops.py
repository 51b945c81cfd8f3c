"""Per-cell and per-pair loop references for the grid pipeline's phases.

Production runs each phase through one staged, batched kernel:
:func:`repro.core.labeling.label_cores`,
:func:`repro.core.cellgraph.exact_components` /
:func:`~repro.core.cellgraph.approx_components` and
:func:`repro.core.border.assign_borders`.  The functions here are the
classic loops those kernels replaced — one Python iteration per grid cell
(cores, borders) or per candidate cell pair (edges) over a
:class:`~tests.oracles.unionfind.KeyedUnionFind`.  They compute the same
predicates against the same :func:`repro.geometry.distance.sq_radius`
boundary, so production output must be byte-identical to theirs; the
differential tests and the kernel benches check exactly that.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.cellgraph import (
    CoreCells,
    approx_edge_predicate,
    core_cells,
    exact_edge_predicate,
)
from repro.errors import AlgorithmError
from repro.geometry import distance as dm
from repro.geometry.bcp import bcp_within
from repro.grid.cells import Grid
from repro.grid.hierarchy import FlatHierarchy

from .adjacency import neighbor_cell_pair_arrays
from .cellview import CellView
from .unionfind import KeyedUnionFind


# ------------------------------------------------------------------- cores


def _check_side(grid: Grid, what: str) -> None:
    if grid.side > grid.eps / np.sqrt(grid.dim) * (1.0 + 1e-9):
        raise AlgorithmError(f"{what} requires cell side <= eps/sqrt(d)")


def label_cores(
    grid: Grid,
    min_pts: int,
    *,
    deadline=None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean core mask, one cell at a time with early termination.

    Same contract as :func:`repro.core.labeling.label_cores`:
    ``known_core`` marks points already known to be core.
    """
    _check_side(grid, "core labeling")
    view = CellView(grid)
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    core = np.zeros(len(points), dtype=bool)
    if known_core is not None and known_core.any():
        # Monotone carry: only cells holding a not-yet-known point can
        # change anything; every other cell's verdict is the hint itself.
        core[:] = known_core
        unknown = np.nonzero(~known_core)[0]
        if len(unknown) == 0:
            return core
        ucells = sorted({view.cell_of(i) for i in unknown.tolist()})
        work = ((c, view.points_in(c)) for c in ucells)
    else:
        work = view.cells.items()

    for cell, idx in work:
        if deadline is not None:
            deadline.tick()
        if len(idx) >= min_pts:
            core[idx] = True
            continue
        cell_size = len(idx)
        if known_core is not None:
            already = known_core[idx]
            if already.all():
                core[idx] = True
                continue
            if already.any():
                core[idx[already]] = True
                idx = idx[~already]
        # Sparse cell: count neighbours with early termination, batching
        # neighbour cells a few hundred points at a time.  Same-cell points
        # are all within eps, so every point starts at the cell occupancy.
        counts = np.full(len(idx), cell_size, dtype=np.int64)
        active = np.arange(len(idx))
        pending: list = []
        pending_size = 0
        done = False
        for ncell in view.neighbor_cells(cell):
            pending.append(view.points_in(ncell))
            pending_size += len(pending[-1])
            if pending_size < 256:
                continue
            nidx = np.concatenate(pending)
            pending, pending_size = [], 0
            block = dm.pairwise_sq_dists(points[idx[active]], points[nidx])
            counts[active] += (block <= sq_eps).sum(axis=1)
            active = active[counts[active] < min_pts]
            if len(active) == 0:
                done = True
                break
        if not done and pending:
            nidx = np.concatenate(pending)
            block = dm.pairwise_sq_dists(points[idx[active]], points[nidx])
            counts[active] += (block <= sq_eps).sum(axis=1)
        core[idx] = counts >= min_pts
    return core


def neighbor_counts(grid: Grid, cap: Optional[int] = None) -> np.ndarray:
    """Exact ``|B(p, eps)|`` for every point (optionally capped at ``cap``).

    The brute predicate behind core labeling: ``label_cores`` must equal
    ``neighbor_counts(grid) >= min_pts``.
    """
    _check_side(grid, "neighbor_counts")
    view = CellView(grid)
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    counts = np.zeros(len(points), dtype=np.int64)
    for cell, idx in view.cells.items():
        counts[idx] += len(idx)
        for ncell in view.neighbor_cells(cell):
            nidx = view.points_in(ncell)
            block = dm.pairwise_sq_dists(points[idx], points[nidx])
            counts[idx] += (block <= sq_eps).sum(axis=1)
    if cap is not None:
        np.minimum(counts, cap, out=counts)
    return counts


# ----------------------------------------------------------------- borders


def assign_borders(
    grid: Grid,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    *,
    deadline=None,
) -> Dict[int, Tuple[int, ...]]:
    """Border point -> sorted tuple of cluster ids, one cell at a time.

    Same contract as :func:`repro.core.border.assign_borders`, returned as
    a plain dict (noise points are absent).
    """
    view = CellView(grid)
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    out: Dict[int, Tuple[int, ...]] = {}
    for cell, idx in view.cells.items():
        if deadline is not None:
            deadline.tick()
        non_core = idx[~core_mask[idx]]
        if len(non_core) == 0:
            continue
        # Candidate core points: the cell's own and its eps-neighbours'.
        blocks = [idx[core_mask[idx]]]
        for ncell in view.neighbor_cells(cell):
            nidx = view.points_in(ncell)
            blocks.append(nidx[core_mask[nidx]])
        cores = np.concatenate(blocks)
        if len(cores) == 0:
            continue
        core_cids = core_labels[cores]
        sq = dm.pairwise_sq_dists(points[non_core], points[cores])
        within = sq <= sq_eps
        for row, q in enumerate(non_core):
            cids = np.unique(core_cids[within[row]])
            if len(cids):
                out[int(q)] = tuple(int(c) for c in cids)
    return out


# ------------------------------------------------------------------- edges


def apply_preunion(
    uf: KeyedUnionFind, cells: CoreCells, preunion: Optional[np.ndarray]
) -> None:
    """Seed ``uf`` (keyed by core-cell position) with known-connected pairs.

    ``preunion`` names grid cell ids; pairs naming cells that are not
    core cells are skipped: ``KeyedUnionFind.union`` would otherwise
    register them and shift every later component label.
    """
    if preunion is None:
        return
    position = {g: t for t, g in enumerate(cells.ids.tolist())}
    for g1, g2 in np.asarray(preunion).reshape(-1, 2).tolist():
        if g1 in position and g2 in position:
            uf.union(position[g1], position[g2])


def candidate_cell_pairs(
    grid: Grid, cells: CoreCells, uf: KeyedUnionFind, *, seeded: bool
) -> Iterator[Tuple[int, int]]:
    """Neighbour core-cell pairs (positions) still worth an edge test.

    Seeded (a pre-union carry was applied to ``uf``), pairs whose
    endpoints already share a root are dropped up front.
    """
    ii, jj, _ = neighbor_cell_pair_arrays(grid, subset=cells.ids)
    if seeded and len(ii):
        root = np.fromiter(
            (uf.find(t) for t in range(len(cells))), dtype=np.int64, count=len(cells)
        )
        keep = root[ii] != root[jj]
        ii, jj = ii[keep], jj[keep]
    yield from zip(ii.tolist(), jj.tolist())


def labels_from_components(
    grid: Grid, cells: CoreCells, uf: KeyedUnionFind
) -> Tuple[np.ndarray, int]:
    """Scatter per-cell component labels onto the point array, cell by cell."""
    labels = np.full(len(grid.points), -1, dtype=np.int64)
    cell_label = uf.component_labels()
    for t in range(len(cells)):
        labels[cells.of(t)] = cell_label[t]
    return labels, uf.n_components


def _loop_components(grid, cells, edge, deadline, preunion) -> Tuple[np.ndarray, int]:
    uf = KeyedUnionFind(range(len(cells)))
    apply_preunion(uf, cells, preunion)
    seeded = preunion is not None and len(preunion) > 0
    for a, b in candidate_cell_pairs(grid, cells, uf, seeded=seeded):
        if deadline is not None:
            deadline.tick()
        if uf.connected(a, b):
            continue
        if edge(a, b):
            uf.union(a, b)
    return labels_from_components(grid, cells, uf)


def exact_components(
    grid: Grid,
    core_mask: np.ndarray,
    bcp_strategy: str = "auto",
    *,
    deadline=None,
    preunion: Optional[np.ndarray] = None,
    structures=None,
) -> Tuple[np.ndarray, int]:
    """Components of the exact core-cell graph, one BCP test per pair."""
    cells = core_cells(grid, core_mask)
    edge = exact_edge_predicate(grid, cells, bcp_strategy, structures=structures)
    return _loop_components(grid, cells, edge, deadline, preunion)


def approx_components(
    grid: Grid,
    core_mask: np.ndarray,
    rho: float,
    exact_leaf_size: Optional[int] = None,
    *,
    deadline=None,
    preunion: Optional[np.ndarray] = None,
    structures=None,
) -> Tuple[np.ndarray, int]:
    """Components of the rho-approximate graph, one Lemma 5 probe per pair.

    Builds every core cell's :class:`FlatHierarchy` up front, keyed by
    grid cell id (cells already present in ``structures`` are reused).
    """
    cells = core_cells(grid, core_mask)
    kwargs = {} if exact_leaf_size is None else {"exact_leaf_size": exact_leaf_size}
    if structures is None:
        structures = {}
    for t, g in enumerate(cells.ids.tolist()):
        if g not in structures:
            structures[g] = FlatHierarchy(grid.points[cells.of(t)], grid.eps, rho, **kwargs)
    edge = approx_edge_predicate(
        grid, cells, rho, exact_leaf_size, structures=structures, deadline=deadline
    )
    return _loop_components(grid, cells, edge, deadline, preunion)


def edge_list_exact(
    grid: Grid, core_mask: np.ndarray, bcp_strategy: str = "auto"
) -> np.ndarray:
    """Every edge of the exact graph ``G``, with no union-find short-cut.

    A ``(k, 2)`` array of grid cell ids, lexicographically smaller cell
    first — the shape of a pre-union carry.
    """
    cells = core_cells(grid, core_mask)
    points = grid.points
    ii, jj, _ = neighbor_cell_pair_arrays(grid, subset=cells.ids)
    edges = [
        (cells.ids[a], cells.ids[b])
        for a, b in zip(ii.tolist(), jj.tolist())
        if bcp_within(points[cells.of(a)], points[cells.of(b)], grid.eps, strategy=bcp_strategy)
    ]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)
