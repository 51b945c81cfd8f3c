"""Reference O(n^2) DBSCAN.

The textbook quadratic algorithm (see e.g. Tan, Steinbach & Kumar, which
the paper cites for the folklore O(n^2) bound): compute every neighbourhood
by brute force, mark cores, connect cores within ``eps`` with union-find,
then attach border points.  Slow but unconditionally correct in every
dimensionality — the ground-truth oracle for the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import DBSCANParams
from repro.core.result import Clustering, build_clustering
from repro.geometry import distance as dm
from repro.runtime.deadline import Deadline, as_deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.unionfind import UnionFind
from repro.utils.validation import as_points


def brute_dbscan(
    points,
    eps: float,
    min_pts: int,
    *,
    time_budget: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> Clustering:
    """Exact DBSCAN by exhaustive pairwise distances.

    The deadline (from ``time_budget`` seconds or a ready-made token) is
    polled once per distance-matrix chunk in each of the three quadratic
    passes; ``memory`` is polled at the same cadence.
    """
    params = DBSCANParams(eps, min_pts)
    pts = as_points(points)
    n = len(pts)
    sq_eps = dm.sq_radius(params.eps)
    deadline = as_deadline(time_budget, deadline)

    def checkpoint(phase: str) -> None:
        if deadline is not None:
            deadline.check()
        if memory is not None:
            memory.check(phase)

    # Pass 1: neighbour counts -> core mask.
    counts = np.zeros(n, dtype=np.int64)
    for rows, block in dm.iter_chunked_sq_dists(pts, pts):
        checkpoint("brute counts")
        counts[rows] = (block <= sq_eps).sum(axis=1)
    core_mask = counts >= params.min_pts

    # Pass 2: union cores within eps.
    core_idx = np.nonzero(core_mask)[0]
    uf = UnionFind(len(core_idx))
    core_pts = pts[core_idx]
    for rows, block in dm.iter_chunked_sq_dists(core_pts, core_pts):
        checkpoint("brute core graph")
        within = block <= sq_eps
        for local_i in range(rows.stop - rows.start):
            for local_j in np.nonzero(within[local_i])[0]:
                uf.union(rows.start + local_i, int(local_j))

    # Dense component ids per core point.
    root_to_cid: Dict[int, int] = {}
    core_labels = np.full(n, -1, dtype=np.int64)
    for local, i in enumerate(core_idx):
        root = uf.find(local)
        if root not in root_to_cid:
            root_to_cid[root] = len(root_to_cid)
        core_labels[i] = root_to_cid[root]

    # Pass 3: border memberships.
    borders: Dict[int, Tuple[int, ...]] = {}
    non_core = np.nonzero(~core_mask)[0]
    if len(non_core) and len(core_idx):
        for rows, block in dm.iter_chunked_sq_dists(pts[non_core], core_pts):
            checkpoint("brute borders")
            within = block <= sq_eps
            for local in range(rows.stop - rows.start):
                hits = np.nonzero(within[local])[0]
                if len(hits):
                    q = int(non_core[rows.start + local])
                    cids = np.unique(core_labels[core_idx[hits]])
                    borders[q] = tuple(int(c) for c in cids)

    return build_clustering(
        n,
        core_mask,
        core_labels,
        borders,
        meta={"algorithm": "brute", "eps": params.eps, "min_pts": params.min_pts},
    )
