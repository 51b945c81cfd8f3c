"""The sweep's pre-union carry in its original structured-row formulation.

One ``np.unique(axis=0)`` over ``(label, cell coordinate)`` rows of the
previous step's core points; kept to pin the packed ``(label, cell id)``
rewrite in :func:`repro.engine.sweep.preunion_pairs` element for element
(its id pairs read as coordinate pairs through ``cell_coords``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.grid.cells import Grid

from .cellview import CellKey


def preunion_pairs(prev, grid: Grid) -> List[Tuple[CellKey, CellKey]]:
    """Chained same-cluster cell pairs via one unique pass over rows."""
    core_idx = np.nonzero(prev.core_mask)[0]
    if len(core_idx) == 0:
        return []
    rows = np.concatenate(
        [prev.labels[core_idx][:, None], grid.cell_coords[grid.point_cell[core_idx]]], axis=1
    )
    uniq = np.unique(rows, axis=0)
    if len(uniq) < 2:
        return []
    same_label = np.nonzero(uniq[1:, 0] == uniq[:-1, 0])[0]
    cells = list(map(tuple, uniq[:, 1:].tolist()))
    return [(cells[i], cells[i + 1]) for i in same_label.tolist()]
