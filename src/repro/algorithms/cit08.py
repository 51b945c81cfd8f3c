"""CIT08: grid-accelerated exact DBSCAN (Mahran & Mahar, CIT 2008).

The paper's "state of the art" exact baseline: the same seed-expansion
control flow as KDD96, but region queries are answered from a regular grid
with cell side ``eps`` — a query for point ``p`` only scans the points in
``p``'s cell and the ``3^d - 1`` surrounding cells.  This removes the index
traversal overhead yet, as the paper stresses, still degenerates to
``Theta(n^2)`` when eps-balls cover many points.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.params import DBSCANParams
from repro.core.result import Clustering
from repro.algorithms.expansion import expand_dbscan
from repro.geometry import distance as dm
from repro.grid.cells import group_rows
from repro.runtime.deadline import Deadline, as_deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.validation import as_points


class _EpsGrid:
    """Regular grid with cell side ``eps`` answering ball range queries."""

    def __init__(self, points: np.ndarray, eps: float) -> None:
        self.points = points
        self.eps = eps
        self._sq_eps = dm.sq_radius(eps)
        coords = np.floor(points / eps).astype(np.int64)
        self.coords = coords
        self.cells: Dict[Tuple[int, ...], np.ndarray] = {}
        order, bounds = group_rows(coords)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            self.cells[tuple(coords[order[a]].tolist())] = order[a:b]
        d = points.shape[1]
        axes = [np.array([-1, 0, 1])] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        self._offsets = np.stack([m.ravel() for m in mesh], axis=1)

    def region_query(self, i: int) -> np.ndarray:
        base = self.coords[i]
        q = self.points[i]
        blocks = []
        for off in self._offsets:
            idx = self.cells.get(tuple((base + off).tolist()))
            if idx is None:
                continue
            sq = dm.sq_dists_to_point(self.points[idx], q)
            hits = idx[sq <= self._sq_eps]
            if len(hits):
                blocks.append(hits)
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(blocks)


def cit08_dbscan(
    points,
    eps: float,
    min_pts: int,
    time_budget: Optional[float] = None,
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> Clustering:
    """Grid-accelerated exact DBSCAN (identical output to KDD96).

    ``time_budget`` / ``deadline`` / ``memory`` behave as in
    :func:`repro.algorithms.kdd96.kdd96_dbscan`.
    """
    params = DBSCANParams(eps, min_pts)
    pts = as_points(points)
    deadline = as_deadline(time_budget, deadline)
    if deadline is not None:
        deadline.check()
    grid = _EpsGrid(pts, params.eps)
    return expand_dbscan(
        pts,
        params,
        grid.region_query,
        algorithm_name="cit08",
        deadline=deadline,
        memory=memory,
        extra_meta={"grid_cells": len(grid.cells)},
    )
