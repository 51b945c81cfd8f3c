"""Grid-accelerated USEC solving.

The brute-force USEC oracle costs O(|S_pt| * |S_ball|); this module adds
the practical counterpart used by the larger hardness benchmarks: bucket
the ball centres in a grid of side ``r / sqrt(d)`` and test each point
only against centres in eps-neighbouring cells — the same spatial-hashing
idea the DBSCAN algorithms use.  (No contradiction with Theorem 1: the
lower bound is worst-case; on random instances spatial hashing wins big.)
"""

from __future__ import annotations

import numpy as np

from repro.geometry import distance as dm
from repro.grid.cells import Grid, _take_ranges, group_rows
from repro.hardness.usec import USECInstance


def usec_grid(instance: USECInstance) -> bool:
    """Decide USEC by hashing the centres into a grid.

    Exact (no approximation): every (point, centre) pair within the
    radius lies in eps-neighbouring cells of the centre grid, so no
    qualifying pair is missed.
    """
    centers = instance.centers
    points = instance.points
    radius = instance.radius
    grid = Grid(centers, radius)
    sq_limit = dm.sq_radius(radius)

    # Candidate-centre cells per query cell are found by a direct
    # vectorised box-distance comparison against the (few) non-empty
    # centre cells — query cells are generally not centre cells, so the
    # grid's own neighbour machinery does not apply.
    coords = np.floor(points / grid.side).astype(np.int64)
    order, starts = group_rows(coords)
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        gaps = np.maximum(np.abs(grid.cell_coords - coords[order[lo]]) - 1, 0) * grid.side
        near = np.nonzero(np.einsum("ij,ij->i", gaps, gaps) <= sq_limit * (1 + 1e-9))[0]
        if len(near):
            candidates = _take_ranges(grid.order, grid.offsets[near], grid.sizes[near])
            if dm.any_within(points[order[lo:hi]], centers[candidates], radius):
                return True
    return False
