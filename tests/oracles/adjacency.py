"""Brute-force reference for the grid's cell adjacency.

:func:`box_gap_pairs` is the ground truth both adjacency builders of
:class:`repro.grid.cells.Grid` (the offset probe and the coarse-bucket
join) must reproduce: every ordered pair of distinct non-empty cells
whose minimum box-to-box gap is at most ``eps``, by the formula
:func:`repro.grid.cells.neighbor_offsets` applies to its offset table —
no packed keys, no buckets.
"""

from __future__ import annotations

from typing import Set, Tuple

import numpy as np

from repro.grid.cells import Grid

from .cellview import CellKey, CellView


def box_gap_pairs(grid: Grid) -> Set[Tuple[CellKey, CellKey]]:
    """Every ordered pair of distinct eps-neighbour cells, by brute force."""
    keys = CellView(grid).keys
    coords = np.asarray(keys, dtype=np.int64).reshape(len(keys), grid.dim)
    eps, side = grid.eps, grid.side
    # The offset table spans [-reach, reach] per axis.
    reach = int(np.floor(eps / side)) + 1
    out: Set[Tuple[CellKey, CellKey]] = set()
    for a, key in enumerate(keys):
        offsets = coords - coords[a]
        gaps = np.maximum(np.abs(offsets) - 1, 0) * side
        ok = np.einsum("ij,ij->i", gaps, gaps) <= eps * eps + 1e-9 * eps * eps
        ok &= np.abs(offsets).max(axis=1) <= reach
        ok[a] = False
        out.update((key, keys[b]) for b in np.nonzero(ok)[0].tolist())
    return out
