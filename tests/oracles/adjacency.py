"""Brute-force reference for the grid's cell adjacency, and its pair arrays.

:func:`box_gap_pairs` is the ground truth both adjacency builders of
:class:`repro.grid.cells.Grid` (the offset probe and the coarse-bucket
join) must reproduce: every ordered pair of distinct non-empty cells
whose minimum box-to-box gap is at most ``eps``, by the formula
:func:`repro.grid.cells.neighbor_offsets` applies to its offset table —
no packed keys, no buckets.

:func:`neighbor_cell_pair_arrays` expands the grid's CSR adjacency into
the unordered candidate pairs the edge phase resolves, one array entry
per pair.  The edge kernel reads the same pairs off the CSR without
building these arrays; the loop oracles and the tests build them.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

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


def neighbor_cell_pair_arrays(
    grid: Grid, subset: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each unordered pair of distinct eps-neighbour cells, once.

    Returns ``(i, j, inner)``: the pairs ``(i[t], j[t])`` with
    ``i[t] < j[t]`` — cells are numbered in lexicographic coordinate
    order, so the smaller cell comes first, the orientation the oriented
    Lemma 5 probe relies on — in CSR entry order, and ``inner[t]`` True
    when the two cells are inner-ring neighbours (Chebyshev distance 1).
    ``subset`` (an array of cell ids) restricts both endpoints, and the
    pairs then name positions in the subset's ascending id list.  The
    pairs are the adjacency's entries ``a -> b`` with ``b > a``.
    """
    adjacency = grid.adjacency()
    lengths = np.diff(adjacency.indptr)
    src = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    dst = adjacency.indices.astype(np.int64)
    inner = np.arange(len(dst)) < np.repeat(adjacency.indptr[:-1] + adjacency.inner, lengths)
    keep = dst > src
    src, dst, inner = src[keep], dst[keep], inner[keep]
    if subset is None:
        return src, dst, inner
    member = np.zeros(len(grid), dtype=bool)
    member[subset] = True
    keep = member[src] & member[dst]
    position = np.cumsum(member) - 1
    return position[src[keep]], position[dst[keep]], inner[keep]
