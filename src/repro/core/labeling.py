"""The labeling process: decide core / non-core for every point (Section 2.2).

Works on the grid ``T`` with cell side ``eps / sqrt(d)``, in the staged,
batched passes of the mark-core phase (Wang/Gu/Shun's phase structure;
shared machinery in :mod:`repro.core.corekernel`):

* **Stage A — dense quick-accept.**  A cell holding at least ``MinPts``
  points makes *all* its points core (same-cell points are within
  ``eps``).  The verdict needs only the cell sizes, so every dense cell in
  the pass is accepted by one vectorised comparison and one index scatter.

* **Stage B — size-classed sparse counting.**  The surviving sparse
  cells' points accumulate neighbour counts against their cells'
  eps-neighbour points.  The (cell, neighbour-cell) CSR adjacency is
  flattened into one per-cell neighbour-point list, the cells are grouped
  into power-of-two size classes (so padding waste stays below 2x), and
  each class runs as tiled, batched distance blocks with *vectorised
  early retirement*: only the predicate ``|B(p, eps)| >= MinPts``
  matters, so a point that reaches ``MinPts`` drops out of every later
  tile, and a cell whose points all retired contributes no further rows.

The per-cell loop this replaced is kept as the differential oracle in
``tests/oracles/loops.py``; the mask is byte-identical to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.corekernel import (
    _padded_rows,
    _size_classes,
    _take_ranges,
    _tile_width,
    _work_cell_ids,
    grid_soa,
)
from repro.errors import AlgorithmError
from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.cells import Grid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline


def label_cores(
    grid: Grid,
    min_pts: int,
    *,
    deadline: Optional["Deadline"] = None,
    cells=None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean core mask for every point of ``grid.points``.

    ``deadline`` (if given) is polled once per batched tile, so a labeling
    pass over a huge grid aborts promptly with
    :class:`~repro.errors.TimeoutExceeded`.

    ``cells`` optionally restricts the pass to an iterable of cell
    coordinates (a *shard*); positions outside those cells stay ``False``.
    The per-cell decision only reads the cell's eps-neighbour cells, so a
    union of shard passes over a partition of the grid equals the full
    pass — this is what :mod:`repro.parallel` fans out over workers.

    ``known_core`` optionally marks points *already known* to be core — a
    sound lower bound, e.g. the core mask of a smaller ``eps`` at the same
    ``MinPts`` (``|B(p, eps)|`` is monotone in ``eps``, the Sandwich
    Theorem's Theorem 3 ingredient).  Known points skip the counting pass;
    a cell whose points are all known skips its neighbour scan entirely.
    The returned mask is identical to a run without the hint.

    The funnel is published through the ``core_*`` counters:
    ``core_points_total == core_dense_points + core_known_points +
    core_counted_points`` over the cells the pass visited, and
    ``core_retired_points <= core_counted_points`` measures how much the
    early-retirement tiles saved.
    """
    if grid.side > grid.eps / np.sqrt(grid.dim) * (1.0 + 1e-9):
        raise AlgorithmError(
            "core labeling requires cell side <= eps/sqrt(d) so that same-cell "
            f"points are within eps (side={grid.side}, eps={grid.eps}, d={grid.dim})"
        )
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    core = np.zeros(len(points), dtype=bool)
    soa = grid_soa(grid)
    work, carry = _work_cell_ids(grid, soa, cells, known_core)
    if carry:
        core[:] = known_core
    counters.add("core_cells_total", len(work))
    if len(work) == 0:
        return core
    if deadline is not None:
        deadline.check()
    work_sizes = soa.sizes[work]
    counters.add("core_points_total", int(work_sizes.sum()))

    # Stage A: dense quick-accept over every visited cell at once.
    dense = work_sizes >= min_pts
    dense_ids = work[dense]
    if len(dense_ids):
        core[_take_ranges(soa.cat, soa.offsets[dense_ids], soa.sizes[dense_ids])] = True
        counters.add("core_dense_cells", len(dense_ids))
        counters.add("core_dense_points", int(soa.sizes[dense_ids].sum()))
    sparse_ids = work[~dense]
    counters.add("core_sparse_cells", len(sparse_ids))
    if len(sparse_ids) == 0:
        return core

    # Queries: the sparse cells' points that still need a counting pass.
    q_all = _take_ranges(soa.cat, soa.offsets[sparse_ids], soa.sizes[sparse_ids])
    q_cell = np.repeat(np.arange(len(sparse_ids)), soa.sizes[sparse_ids])
    if known_core is not None:
        already = known_core[q_all]
        if already.any():
            core[q_all[already]] = True
            counters.add("core_known_points", int(already.sum()))
            q_all, q_cell = q_all[~already], q_cell[~already]
    counters.add("core_counted_points", len(q_all))
    if len(q_all) == 0:
        return core
    # Cells whose points were all known drop out before any neighbour work.
    live = np.unique(q_cell)
    remap = np.full(len(sparse_ids), -1, dtype=np.int64)
    remap[live] = np.arange(len(live))
    q_cell = remap[q_cell]
    live_ids = sparse_ids[live]

    # Flatten the (cell, neighbour-cell) CSR adjacency into one
    # neighbour-point list per live sparse cell.
    adjacency = grid.adjacency()
    nb_counts = adjacency.counts(live_ids)
    nb_cells = _take_ranges(adjacency.indices, adjacency.indptr[live_ids], nb_counts)
    nb_owner = np.repeat(np.arange(len(live_ids)), nb_counts)
    nb_sizes = soa.sizes[nb_cells]
    nlen = np.bincount(nb_owner, weights=nb_sizes, minlength=len(live_ids)).astype(np.int64)
    nbr_flat = _take_ranges(soa.cat, soa.offsets[nb_cells], nb_sizes)
    nbr_starts = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(nlen[:-1], out=nbr_starts[1:])

    # Queries of one cell are contiguous in ``q_all`` (built per cell, in
    # cell order), so each live cell owns one query range.
    q_counts = np.bincount(q_cell, minlength=len(live_ids)).astype(np.int64)
    q_starts = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(q_counts[:-1], out=q_starts[1:])
    verdict = np.zeros(len(q_all), dtype=bool)

    # Upper-bound quick-reject: a sparse cell whose occupancy plus entire
    # neighbourhood stays below ``MinPts`` cannot make any point core —
    # no distance work needed (the per-cell reference pays the full scan).
    ubound = soa.sizes[live_ids] + nlen
    rejected = ubound < min_pts
    if rejected.any():
        counters.add(
            "core_upperbound_reject_points", int(q_counts[rejected].sum())
        )
    needs_work = np.where(rejected, 0, nlen)

    # Stage B: size-classed counting, batched per *cell* — each class is
    # a (cells, max queries/cell, tile) block settled by one batched
    # matmul, with whole cells retiring from later tiles once all their
    # points reach MinPts.
    for rows in _size_classes(needs_work):
        nbr_pad, nbr_valid = _padded_rows(nbr_flat, nbr_starts[rows], nlen[rows])
        q_pad, q_valid = _padded_rows(q_all, q_starts[rows], q_counts[rows])
        q_max = q_pad.shape[1]
        # Counts start at the full cell occupancy (same-cell points are
        # all within eps), exactly like the reference; padded query slots are
        # born retired so they never keep a cell alive.
        count_mat = np.where(
            q_valid, soa.sizes[live_ids[rows]][:, None], np.int64(min_pts)
        )
        active = np.arange(len(rows))
        width = nbr_pad.shape[1]
        pos = 0
        while pos < width and len(active):
            if deadline is not None:
                deadline.check()  # one poll per tile, not per cell
            w = _tile_width(len(active) * q_max, grid.dim, width - pos)
            tile = slice(pos, pos + w)
            nbr_idx = nbr_pad[active][:, tile]
            q_idx = q_pad[active]
            # Expanded-form distances as one batched matmul per tile:
            # (cells, q_max, d) @ (cells, d, w) -> (cells, q_max, w).
            sq = (
                soa.point_sq[q_idx][:, :, None]
                + soa.point_sq[nbr_idx][:, None, :]
                - 2.0 * np.matmul(points[q_idx], points[nbr_idx].transpose(0, 2, 1))
            )
            np.maximum(sq, 0.0, out=sq)
            within = sq <= sq_eps
            within &= nbr_valid[active][:, None, tile]
            count_mat[active] += within.sum(axis=2)
            done = (count_mat[active] >= min_pts).all(axis=1)
            pos += w
            if done.any() and pos < width:
                retired = count_mat[active[done]] >= min_pts
                counters.add("core_retired_points", int((retired & q_valid[active[done]]).sum()))
                counters.add("core_retired_cells", int(done.sum()))
            active = active[~done]
        # Row-major valid entries of the count matrix are exactly the
        # class cells' queries, concatenated in class order.
        q_pos = _take_ranges(
            np.arange(len(q_all), dtype=np.int64), q_starts[rows], q_counts[rows]
        )
        verdict[q_pos] = count_mat[q_valid] >= min_pts
    core[q_all] = verdict
    return core
