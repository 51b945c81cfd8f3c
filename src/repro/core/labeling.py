"""The labeling process: decide core / non-core for every point (Section 2.2).

Works on the grid ``T`` with cell side ``eps / sqrt(d)``, in the staged,
batched passes of the mark-core phase (Wang/Gu/Shun's phase structure;
shared machinery in :mod:`repro.core.corekernel`):

* **Stage A — dense quick-accept.**  A cell holding at least ``MinPts``
  points makes *all* its points core (same-cell points are within
  ``eps``).  The verdict needs only the cell sizes, so every dense cell in
  the pass is accepted by one vectorised comparison and one index scatter.

* **Stage B — two-ring, size-classed sparse counting.**  The surviving
  sparse cells' points accumulate neighbour counts against their cells'
  eps-neighbour points, nearest ring first.  The grid's adjacency rows
  list the inner ring (Chebyshev-distance-1 cells) first, so pass 1
  counts every query against its own cell plus the inner ring, and the
  queries that reach ``MinPts`` there retire.  Pass 2 scans the outer
  shell, only for the queries still below ``MinPts`` whose count plus
  the shell's point total can still reach it.  Each pass flattens only
  its own ring's neighbour points, groups the cells by the power-of-two
  classes of both their neighbour-list length and their query count (so
  padding waste stays below 2x on each axis), and runs each class as
  tiled, batched distance blocks with *vectorised early retirement*:
  only the predicate ``|B(p, eps)| >= MinPts`` matters, so a point that
  reaches ``MinPts`` drops out of every later tile, and a cell whose
  points all retired contributes no further rows.

* **Plan once, count in ranges.**  Stage A, the carry, the per-row ring
  totals and the upper-bound reject form a :class:`CorePlan`
  (:func:`plan_cores`); stage B (:func:`count_cores`) then counts any
  contiguous range of the plan's live cells.  The serial call counts
  them all; :mod:`repro.parallel` builds the plan once and counts its
  ranges on threads, so they redo none of the plan.

The per-cell loop this replaced is kept as the differential oracle in
``tests/oracles/loops.py``; the mask is byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.corekernel import (
    _EMPTY,
    _padded_rows,
    _size_classes,
    _take_ranges,
    _tile_width,
)
from repro.errors import AlgorithmError
from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.cells import Grid, _CSRAdjacency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline


def label_cores(
    grid: Grid,
    min_pts: int,
    *,
    deadline: Optional["Deadline"] = None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean core mask for every point of ``grid.points``.

    ``deadline`` (if given) is polled once per batched tile, so a labeling
    pass over a huge grid aborts promptly with
    :class:`~repro.errors.TimeoutExceeded`.

    ``known_core`` optionally marks points *already known* to be core — a
    sound lower bound, e.g. the core mask of a smaller ``eps`` at the same
    ``MinPts`` (``|B(p, eps)|`` is monotone in ``eps``, the Sandwich
    Theorem's Theorem 3 ingredient).  Known points skip the counting pass;
    a cell whose points are all known skips its neighbour scan entirely.
    The returned mask is identical to a run without the hint.

    The funnel is published through the ``core_*`` counters:
    ``core_points_total == core_dense_points + core_known_points +
    core_counted_points`` over the cells the pass visited, and
    ``core_retired_points <= core_counted_points`` measures how much
    early retirement saved (points that reach MinPts on the inner ring,
    plus points retired by an outer-shell tile).  ``core_tile_slots``
    counts the padded (query, neighbour) slots the distance tiles
    evaluated, so its ratio to the real neighbour work shows the padding
    overhead.
    """
    plan = plan_cores(grid, min_pts, deadline=deadline, known_core=known_core)
    return plan.merge([count_cores(grid, plan, deadline=deadline)])


def _empty() -> np.ndarray:
    return _EMPTY


@dataclass
class CorePlan:
    """A core-labeling call after stage A, the known-core carry and the reject.

    ``core`` holds the verdicts the plan settled (dense cells, known
    points); counting only adds to it.  The queries left are the live
    sparse cells' unknown points: ``q_all`` (point indices) with their
    live-cell positions ``q_cell`` (ascending, so a range of live cells
    owns a contiguous block of queries), and ``open_q`` the query
    positions that survived the upper-bound reject.  Per live cell: its
    dense id ``live_ids`` and the point totals ``inner_len`` /
    ``outer_len`` of its inner ring and outer shell.
    """

    min_pts: int
    core: np.ndarray
    q_all: np.ndarray = field(default_factory=_empty)
    q_cell: np.ndarray = field(default_factory=_empty)
    open_q: np.ndarray = field(default_factory=_empty)
    live_ids: np.ndarray = field(default_factory=_empty)
    inner_len: np.ndarray = field(default_factory=_empty)
    outer_len: np.ndarray = field(default_factory=_empty)

    def ranges(self, n_tasks: int) -> List[Tuple[int, int]]:
        """Up to ``n_tasks`` contiguous live-cell ranges of about equal planned slots.

        A live cell plans ``open queries x neighbour points`` slots.
        Ranges without an open query are left out (their points stay
        non-core).
        """
        if not len(self.open_q):
            return []
        slots = np.bincount(self.q_cell[self.open_q], minlength=len(self.live_ids))
        cum = np.zeros(len(slots) + 1, dtype=np.int64)
        np.cumsum(slots * (self.inner_len + self.outer_len), out=cum[1:])
        cuts = np.searchsorted(cum[1:], cum[-1] * np.arange(1, n_tasks) / n_tasks) + 1
        bounds = np.unique(np.concatenate(([0], cuts, [len(slots)])))
        return [
            (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
            if cum[hi] > cum[lo]
        ]

    def merge(self, results: Iterable[Tuple[np.ndarray, Dict[str, int]]]) -> np.ndarray:
        """Write :func:`count_cores` results into ``core``; publish their counters."""
        for idx, tally in results:
            self.core[idx] = True
            for name, value in tally.items():
                counters.add(name, value)
        return self.core


def plan_cores(
    grid: Grid,
    min_pts: int,
    *,
    deadline: Optional["Deadline"] = None,
    known_core: Optional[np.ndarray] = None,
) -> CorePlan:
    """Stage A, the known-core carry and the upper-bound reject; publishes their counters."""
    if grid.side > grid.eps / np.sqrt(grid.dim) * (1.0 + 1e-9):
        raise AlgorithmError(
            "core labeling requires cell side <= eps/sqrt(d) so that same-cell "
            f"points are within eps (side={grid.side}, eps={grid.eps}, d={grid.dim})"
        )
    min_pts = int(min_pts)
    core = np.zeros(len(grid.points), dtype=bool)
    if known_core is not None and known_core.any():
        # The carry pre-seeds the mask and visits only the cells holding
        # an unknown point, like the reference loop.
        core[:] = known_core
        work = np.unique(grid.point_cell[~core])
    else:
        work = np.arange(len(grid), dtype=np.int64)
    counters.add("core_cells_total", len(work))
    if len(work) == 0:
        return CorePlan(min_pts, core)
    if deadline is not None:
        deadline.check()
    work_sizes = grid.sizes[work]
    counters.add("core_points_total", int(work_sizes.sum()))

    # Stage A: dense quick-accept over every visited cell at once.
    dense = work_sizes >= min_pts
    dense_ids = work[dense]
    if len(dense_ids):
        core[_take_ranges(grid.order, grid.offsets[dense_ids], grid.sizes[dense_ids])] = True
        counters.add("core_dense_cells", len(dense_ids))
        counters.add("core_dense_points", int(grid.sizes[dense_ids].sum()))
    sparse_ids = work[~dense]
    counters.add("core_sparse_cells", len(sparse_ids))
    if len(sparse_ids) == 0:
        return CorePlan(min_pts, core)

    # Queries: the sparse cells' points that still need a counting pass.
    q_all = _take_ranges(grid.order, grid.offsets[sparse_ids], grid.sizes[sparse_ids])
    q_cell = np.repeat(np.arange(len(sparse_ids)), grid.sizes[sparse_ids])
    if known_core is not None:
        already = known_core[q_all]
        if already.any():
            core[q_all[already]] = True
            counters.add("core_known_points", int(already.sum()))
            q_all, q_cell = q_all[~already], q_cell[~already]
    counters.add("core_counted_points", len(q_all))
    if len(q_all) == 0:
        return CorePlan(min_pts, core)
    # Cells whose points were all known drop out before any neighbour work.
    live = np.unique(q_cell)
    remap = np.full(len(sparse_ids), -1, dtype=np.int64)
    remap[live] = np.arange(len(live))
    q_cell = remap[q_cell]
    live_ids = sparse_ids[live]

    # Per-row neighbour-point totals — the inner-ring prefix and the
    # outer shell — from one cumulative sum over the adjacency entries'
    # cell sizes, without flattening a single neighbour point.  Gathering
    # the sizes in slices keeps the sum the only whole-adjacency array.
    adjacency = grid.adjacency()
    size_sum = np.zeros(len(adjacency.indices) + 1, dtype=np.int64)
    step = 1 << 20  # 8 MiB of int32 -> intp cast ids per slice
    for lo in range(0, len(adjacency.indices), step):
        ids = adjacency.indices[lo:lo + step]
        np.take(grid.sizes, ids, out=size_sum[lo + 1:lo + 1 + len(ids)])
    np.cumsum(size_sum, out=size_sum)
    row_lo = adjacency.indptr[live_ids]
    row_mid = row_lo + adjacency.inner[live_ids]
    row_hi = adjacency.indptr[live_ids + 1]
    inner_len = size_sum[row_mid] - size_sum[row_lo]
    outer_len = size_sum[row_hi] - size_sum[row_mid]

    # Upper-bound quick-reject: a sparse cell whose occupancy plus entire
    # neighbourhood stays below ``MinPts`` cannot make any point core —
    # no distance work needed (the per-cell reference pays the full scan).
    rejected = grid.sizes[live_ids] + inner_len + outer_len < min_pts
    if rejected.any():
        counters.add(
            "core_upperbound_reject_points", int(rejected[q_cell].sum())
        )
    return CorePlan(
        min_pts, core, q_all=q_all, q_cell=q_cell,
        open_q=np.nonzero(~rejected[q_cell])[0], live_ids=live_ids,
        inner_len=inner_len, outer_len=outer_len,
    )


def count_cores(
    grid: Grid,
    plan: CorePlan,
    lo: int = 0,
    hi: Optional[int] = None,
    *,
    deadline: Optional["Deadline"] = None,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """Stage B over the live cells ``lo:hi`` of ``plan`` (default: all).

    Returns the range's core point indices and its ``core_tile_slots`` /
    ``core_retired_*`` counters, unpublished; ``plan`` is left untouched.
    Ranges that partition the live cells return disjoint index sets whose
    union is the full pass's (tile slots differ: tiles form per range).
    """
    min_pts = plan.min_pts
    hi = len(plan.live_ids) if hi is None else hi
    tally = {"core_tile_slots": 0, "core_retired_points": 0, "core_retired_cells": 0}
    q_lo, q_hi = np.searchsorted(plan.q_cell, (lo, hi))
    o_lo, o_hi = np.searchsorted(plan.open_q, (q_lo, q_hi))
    if o_lo == o_hi:
        return _EMPTY, tally
    q_all = plan.q_all[q_lo:q_hi]
    q_cell = plan.q_cell[q_lo:q_hi] - lo
    open_q = plan.open_q[o_lo:o_hi] - q_lo
    live = plan.live_ids[lo:hi]
    inner_len, outer_len = plan.inner_len[lo:hi], plan.outer_len[lo:hi]
    adjacency = grid.adjacency()
    row_lo = adjacency.indptr[live]
    row_mid = row_lo + adjacency.inner[live]
    own = grid.sizes[live]
    # Counts start at the full cell occupancy (same-cell points are all
    # within eps), exactly like the reference.
    counts = own[q_cell]

    # Nearest ring first.  Pass 1 counts every query against its cell's
    # inner ring; the queries that reach MinPts there retire without ever
    # touching the outer shell.
    _count_pass(
        grid, adjacency, min_pts, q_all, q_cell, counts, open_q,
        row_lo, row_mid - row_lo, inner_len, deadline, tally,
    )
    settled = counts[open_q] >= min_pts
    open_q = open_q[~settled]
    if settled.any():
        tally["core_retired_points"] += int(settled.sum())
        still = np.bincount(q_cell[open_q], minlength=hi - lo)
        kept = own + inner_len + outer_len >= min_pts  # not upper-bound rejected
        tally["core_retired_cells"] += int((kept & (still == 0)).sum())
    # Pass 2: the outer shell, only for the queries still below MinPts
    # that the shell's point total can still carry there.
    open_q = open_q[counts[open_q] + outer_len[q_cell[open_q]] >= min_pts]
    retired_points, retired_cells = _count_pass(
        grid, adjacency, min_pts, q_all, q_cell, counts, open_q,
        row_mid, adjacency.indptr[live + 1] - row_mid, outer_len, deadline, tally,
    )
    tally["core_retired_points"] += retired_points
    tally["core_retired_cells"] += retired_cells
    return q_all[counts >= min_pts], tally


def _count_pass(
    grid: Grid,
    adjacency: _CSRAdjacency,
    min_pts: int,
    q_all: np.ndarray,
    q_cell: np.ndarray,
    counts: np.ndarray,
    open_q: np.ndarray,
    entry_start: np.ndarray,
    entry_len: np.ndarray,
    nlen: np.ndarray,
    deadline: Optional["Deadline"],
    tally: Dict[str, int],
) -> Tuple[int, int]:
    """Add one ring's neighbour counts to the queries ``open_q``, in place.

    ``open_q`` are positions into ``q_all`` (ascending, so each live
    cell's open queries stay contiguous); live cell ``c`` scans the
    adjacency entries ``indices[entry_start[c] : + entry_len[c]]``,
    ``nlen[c]`` neighbour points in all.  Only this ring's neighbour
    points are flattened.  Cells are grouped by the power-of-two classes
    of both their neighbour-list length and their open-query count, and
    each class is a (cells, max queries/cell, tile) block settled by one
    batched matmul per tile, with whole cells retiring from later tiles
    once all their points reach MinPts.  Adds the evaluated tile slots to
    ``tally`` and returns the points and cells retired before the end of
    their rows.
    """
    n_live = len(entry_start)
    q_counts = np.bincount(q_cell[open_q], minlength=n_live).astype(np.int64)
    nlen = np.where(q_counts > 0, nlen, 0)
    if not nlen.any():
        return 0, 0
    q_starts = np.zeros(n_live, dtype=np.int64)
    np.cumsum(q_counts[:-1], out=q_starts[1:])
    entry_len = np.where(nlen > 0, entry_len, 0)
    # One cast of the int32 cell ids; every gather below would redo it.
    nb_cells = _take_ranges(adjacency.indices, entry_start, entry_len).astype(np.intp)
    nbr_flat = _take_ranges(grid.order, grid.offsets[nb_cells], grid.sizes[nb_cells])
    nbr_starts = np.zeros(n_live, dtype=np.int64)
    np.cumsum(nlen[:-1], out=nbr_starts[1:])

    sq_eps = dm.sq_radius(grid.eps)
    retired_points = retired_cells = 0
    for rows in _size_classes(nlen, q_counts):
        nbr_pad, nbr_valid = _padded_rows(nbr_flat, nbr_starts[rows], nlen[rows])
        q_pos, q_valid = _padded_rows(open_q, q_starts[rows], q_counts[rows])
        q_pad = q_all[q_pos]
        q_max = q_pad.shape[1]
        # Padded query slots are born retired so they never keep a cell
        # alive.
        count_mat = np.where(q_valid, counts[q_pos], np.int64(min_pts))
        active = np.arange(len(rows))
        width = nbr_pad.shape[1]
        pos = 0
        while pos < width and len(active):
            if deadline is not None:
                deadline.check()  # one poll per tile, not per cell
            w = _tile_width(len(active) * q_max, grid.dim, width - pos)
            tally["core_tile_slots"] += len(active) * q_max * w
            # One (cells, q_max, w) distance block per tile; the advanced
            # row index plus a column slice copies only the tile's ids.
            within = dm.block_sq_dists(
                grid.points, q_pad[active], nbr_pad[active, pos:pos + w]
            ) <= sq_eps
            within &= nbr_valid[active, None, pos:pos + w]
            count_mat[active] += within.sum(axis=2)
            done = (count_mat[active] >= min_pts).all(axis=1)
            pos += w
            if done.any() and pos < width:
                retired = count_mat[active[done]] >= min_pts
                retired_points += int((retired & q_valid[active[done]]).sum())
                retired_cells += int(done.sum())
            active = active[~done]
        counts[q_pos[q_valid]] = count_mat[q_valid]
    return retired_points, retired_cells
