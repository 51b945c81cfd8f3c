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

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.cellgraph import approx_edge_predicate, core_cells, exact_edge_predicate
from repro.errors import AlgorithmError
from repro.geometry import distance as dm
from repro.geometry.bcp import bcp_within
from repro.grid.cells import CellCoord, Grid
from repro.grid.hierarchy import FlatHierarchy

from .unionfind import KeyedUnionFind

Pairs = Optional[List[Tuple[CellCoord, CellCoord]]]


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
        ucells = np.unique(grid.point_cells[unknown], axis=0)
        work = ((tuple(c), grid.points_in(c)) for c in ucells.tolist())
    else:
        work = grid.cells.items()

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
        for ncell in grid.neighbor_cells(cell):
            pending.append(grid.points_in(ncell))
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
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    counts = np.zeros(len(points), dtype=np.int64)
    for cell, idx in grid.cells.items():
        counts[idx] += len(idx)
        for ncell in grid.neighbor_cells(cell):
            nidx = grid.points_in(ncell)
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
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    out: Dict[int, Tuple[int, ...]] = {}
    for cell, idx in grid.cells.items():
        if deadline is not None:
            deadline.tick()
        non_core = idx[~core_mask[idx]]
        if len(non_core) == 0:
            continue
        # Candidate core points: the cell's own and its eps-neighbours'.
        blocks = [idx[core_mask[idx]]]
        for ncell in grid.neighbor_cells(cell):
            nidx = grid.points_in(ncell)
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


def apply_preunion(uf: KeyedUnionFind, preunion: Pairs) -> None:
    """Seed ``uf`` with pairs already known to be connected in ``G``.

    Pairs naming cells absent from the forest are skipped:
    ``KeyedUnionFind.union`` would otherwise register them and shift every
    later component label.
    """
    if not preunion:
        return
    for c1, c2 in preunion:
        if c1 in uf and c2 in uf:
            uf.union(c1, c2)


def candidate_cell_pairs(
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    uf: KeyedUnionFind,
    *,
    seeded: bool,
) -> Iterator[Tuple[CellCoord, CellCoord]]:
    """Neighbour core-cell pairs still worth an edge test.

    Seeded (a pre-union carry was applied to ``uf``), pairs whose
    endpoints already share a root are dropped up front.
    """
    keys, ii, jj, _ = grid.neighbor_cell_pair_arrays(subset=cells.keys())
    if seeded and len(ii):
        root = np.fromiter(
            (uf.find(c) for c in keys), dtype=np.int64, count=len(keys)
        )
        keep = root[ii] != root[jj]
        ii, jj = ii[keep], jj[keep]
    for i, j in zip(ii.tolist(), jj.tolist()):
        yield keys[i], keys[j]


def labels_from_components(
    grid: Grid, cells: Dict[CellCoord, np.ndarray], uf: KeyedUnionFind
) -> Tuple[np.ndarray, int]:
    """Scatter per-cell component labels onto the point array."""
    labels = np.full(len(grid.points), -1, dtype=np.int64)
    if cells:
        cell_label = uf.component_labels()
        per_cell = np.fromiter(
            (cell_label[c] for c in cells), dtype=np.int64, count=len(cells)
        )
        sizes = np.fromiter(
            (len(idx) for idx in cells.values()), dtype=np.int64, count=len(cells)
        )
        labels[np.concatenate(list(cells.values()))] = np.repeat(per_cell, sizes)
    return labels, uf.n_components


def _resolve_pairs(grid, cells, uf, edge, deadline, preunion) -> None:
    for c1, c2 in candidate_cell_pairs(grid, cells, uf, seeded=bool(preunion)):
        if deadline is not None:
            deadline.tick()
        if uf.connected(c1, c2):
            continue
        if edge(c1, c2):
            uf.union(c1, c2)


def exact_components(
    grid: Grid,
    core_mask: np.ndarray,
    bcp_strategy: str = "auto",
    *,
    deadline=None,
    preunion: Pairs = None,
    structures=None,
) -> Tuple[np.ndarray, int]:
    """Components of the exact core-cell graph, one BCP test per pair."""
    cells = core_cells(grid, core_mask)
    edge = exact_edge_predicate(grid, cells, bcp_strategy, structures=structures)
    uf = KeyedUnionFind(cells.keys())
    apply_preunion(uf, preunion)
    _resolve_pairs(grid, cells, uf, edge, deadline, preunion)
    return labels_from_components(grid, cells, uf)


def approx_components(
    grid: Grid,
    core_mask: np.ndarray,
    rho: float,
    exact_leaf_size: Optional[int] = None,
    *,
    deadline=None,
    preunion: Pairs = None,
    structures=None,
) -> Tuple[np.ndarray, int]:
    """Components of the rho-approximate graph, one Lemma 5 probe per pair.

    Builds every core cell's :class:`FlatHierarchy` up front (cells already
    present in ``structures`` are reused).
    """
    cells = core_cells(grid, core_mask)
    kwargs = {} if exact_leaf_size is None else {"exact_leaf_size": exact_leaf_size}
    if structures is None:
        structures = {}
    edge = approx_edge_predicate(
        grid, cells, rho, exact_leaf_size, structures=structures, deadline=deadline
    )
    uf = KeyedUnionFind(cells.keys())
    apply_preunion(uf, preunion)
    for cell, idx in cells.items():
        if cell not in structures:
            structures[cell] = FlatHierarchy(grid.points[idx], grid.eps, rho, **kwargs)
    _resolve_pairs(grid, cells, uf, edge, deadline, preunion)
    return labels_from_components(grid, cells, uf)


def edge_list_exact(
    grid: Grid, core_mask: np.ndarray, bcp_strategy: str = "auto"
) -> List[Tuple[CellCoord, CellCoord]]:
    """Every edge of the exact graph ``G``, with no union-find short-cut."""
    cells = core_cells(grid, core_mask)
    points = grid.points
    return [
        (c1, c2)
        for c1, c2 in grid.neighbor_cell_pairs(subset=cells.keys())
        if bcp_within(points[cells[c1]], points[cells[c2]], grid.eps, strategy=bcp_strategy)
    ]
