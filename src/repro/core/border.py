"""Border-point assignment (Section 2.2, "Assigning Border Points").

After the connected components of the core-cell graph fix the clusters'
core points, every non-core point ``q`` joins the cluster of **every** core
point within distance ``eps`` of it — the rule that makes border points
potentially multi-cluster members (Lemma 2 of the original paper).  A
non-core point with no core point in range is noise.

The same exact rule serves rho-approximate DBSCAN: Definition 5's
maximality only requires exactly density-reachable points to be included,
so assigning with the true ``eps`` yields a legal result.

The pass is batched (shared machinery in :mod:`repro.core.corekernel`):
non-core points gather their cells' candidate core points (own cell +
eps-neighbour cells) through size-classed padded layouts, and the
per-point cluster memberships come out of one vectorised unique-(point,
label) reduction into a CSR
:class:`~repro.core.corekernel.BorderAssignments`.  The per-cell loop
this replaced is kept as the differential oracle in
``tests/oracles/loops.py``; the memberships are identical to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.core.corekernel import (
    BorderAssignments,
    _padded_rows,
    _size_classes,
    _take_ranges,
    _tile_width,
)
from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.cells import Grid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline


def assign_borders(
    grid: Grid,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    *,
    deadline: Optional["Deadline"] = None,
) -> BorderAssignments:
    """Map each border point to the sorted tuple of cluster ids it joins.

    ``core_labels`` holds a dense component id for every core point.
    Points with no core point within ``eps`` are simply absent from the
    returned mapping (they are noise).  ``deadline`` is polled once per
    batched tile.

    The result is a CSR-backed read-only mapping that compares equal to —
    and is consumed exactly like — a plain ``dict``.  The funnel
    partitions cleanly: ``border_points_total == border_assigned +
    border_noise``, where ``border_noise`` includes the
    ``border_no_candidates`` points whose cells hold no candidate core at
    all.
    """
    sq_eps = dm.sq_radius(grid.eps)
    core_mask = np.asarray(core_mask, dtype=bool)
    work = np.arange(len(grid), dtype=np.int64)
    if len(work) == 0:
        return BorderAssignments.empty()
    if deadline is not None:
        deadline.check()

    # Non-core queries per visited cell.
    q_all = _take_ranges(grid.order, grid.offsets[work], grid.sizes[work])
    q_cell = np.repeat(np.arange(len(work)), grid.sizes[work])
    non_core = ~core_mask[q_all]
    q_all, q_cell = q_all[non_core], q_cell[non_core]
    counters.add("border_points_total", len(q_all))
    if len(q_all) == 0:
        return BorderAssignments.empty()
    live = np.unique(q_cell)
    remap = np.full(len(work), -1, dtype=np.int64)
    remap[live] = np.arange(len(live))
    q_cell = remap[q_cell]
    live_ids = work[live]

    # Candidate cores per live cell: own cores first, then each
    # eps-neighbour cell's cores in adjacency order (order never reaches
    # the output — memberships are reduced to sorted unique labels).
    core_flags = core_mask[grid.order]
    core_counts = np.bincount(grid.point_cell[core_mask], minlength=len(grid))
    core_cat = grid.order[core_flags]
    core_offsets = np.zeros(len(grid), dtype=np.int64)
    np.cumsum(core_counts[:-1], out=core_offsets[1:])

    adjacency = grid.adjacency()
    adj_counts = adjacency.counts(live_ids)
    entry_len = adj_counts + 1
    entry_ptr = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(entry_len[:-1], out=entry_ptr[1:])
    entries = np.empty(int(entry_len.sum()), dtype=np.int64)
    entries[entry_ptr] = live_ids  # the cell itself leads its row
    rest = np.ones(len(entries), dtype=bool)
    rest[entry_ptr] = False
    entries[rest] = _take_ranges(
        adjacency.indices, adjacency.indptr[live_ids], adj_counts
    )
    entry_owner = np.repeat(np.arange(len(live_ids)), entry_len)
    cand_len = np.bincount(
        entry_owner, weights=core_counts[entries], minlength=len(live_ids)
    ).astype(np.int64)
    cand_flat = _take_ranges(core_cat, core_offsets[entries], core_counts[entries])
    cand_starts = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(cand_len[:-1], out=cand_starts[1:])

    # Cells with zero candidate cores: every non-core point there is
    # noise — the explicit verdict the counters need to partition.
    empty_cells = cand_len[q_cell] == 0
    if empty_cells.any():
        counters.add("border_no_candidates", int(empty_cells.sum()))
        counters.add("border_noise", int(empty_cells.sum()))
        q_all, q_cell = q_all[~empty_cells], q_cell[~empty_cells]
    if len(q_all) == 0:
        counters.add("border_assigned", 0)
        return BorderAssignments.empty()

    # Stage C: size-classed, tiled candidate scan collecting (point,
    # label) hits; no early exit — every in-range core's label counts.
    hit_q: List[np.ndarray] = []
    hit_lab: List[np.ndarray] = []
    core_label_arr = np.asarray(core_labels, dtype=np.int64)
    for rows in _size_classes(cand_len):
        padmat, valid = _padded_rows(cand_flat, cand_starts[rows], cand_len[rows])
        row_of = np.full(len(live_ids), -1, dtype=np.int64)
        row_of[rows] = np.arange(len(rows))
        sel = np.nonzero(row_of[q_cell] >= 0)[0]
        if len(sel) == 0:
            continue
        q_rows = row_of[q_cell[sel]]
        width = padmat.shape[1]
        pos = 0
        while pos < width:
            if deadline is not None:
                deadline.check()  # one poll per tile, not per cell
            w = _tile_width(len(sel), grid.dim, width - pos)
            # Advanced row index plus a column slice: copies only the tile.
            nbr_idx = padmat[q_rows, pos:pos + w]
            within = dm.block_sq_dists(
                grid.points, q_all[sel, None], nbr_idx
            )[:, 0, :] <= sq_eps
            within &= valid[q_rows, pos:pos + w]
            r, c = np.nonzero(within)
            if len(r):
                hit_q.append(q_all[sel[r]])
                hit_lab.append(core_label_arr[nbr_idx[r, c]])
            pos += w

    if not hit_q:
        counters.add("border_assigned", 0)
        counters.add("border_noise", len(q_all))
        return BorderAssignments.empty()
    pairs_q = np.concatenate(hit_q)
    pairs_lab = np.concatenate(hit_lab)
    # Unique labels per point: one lexsort + run-length dedup replaces a
    # per-point np.unique call.
    order = np.lexsort((pairs_lab, pairs_q))
    pq, pl = pairs_q[order], pairs_lab[order]
    keep = np.ones(len(pq), dtype=bool)
    keep[1:] = (pq[1:] != pq[:-1]) | (pl[1:] != pl[:-1])
    pq, pl = pq[keep], pl[keep]
    starts = np.nonzero(
        np.concatenate([[True], pq[1:] != pq[:-1]])
    )[0]
    out_points = pq[starts]
    indptr = np.append(starts, len(pq)).astype(np.int64)
    counters.add("border_assigned", len(out_points))
    counters.add("border_noise", int(len(q_all) - len(out_points)))
    return BorderAssignments(out_points, indptr, pl)
