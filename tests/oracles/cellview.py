"""A coordinate-keyed dict view of a grid's sorted cell arrays.

:class:`repro.grid.cells.Grid` names a cell by its id only: cell ``t`` is
``cell_coords[t]`` and owns ``order[cell_start[t]:cell_start[t + 1]]``.
The per-cell loop oracles read the grid the way the paper states it — a
map from cell coordinate to the points it covers, plus each cell's
eps-neighbour cells — so :class:`CellView` rebuilds that view from the
arrays and the adjacency rows.  Keys are coordinate tuples, listed in id
(lexicographic) order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.grid.cells import Grid

CellKey = Tuple[int, ...]

_EMPTY = np.empty(0, dtype=np.int64)


class CellView:
    """``{coordinate tuple: point indices}`` plus neighbour rows of ``grid``."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.keys: List[CellKey] = [tuple(c) for c in grid.cell_coords.tolist()]
        self.index: Dict[CellKey, int] = {c: t for t, c in enumerate(self.keys)}
        bounds = grid.cell_start.tolist()
        self.cells: Dict[CellKey, np.ndarray] = {
            c: grid.order[bounds[t]:bounds[t + 1]] for t, c in enumerate(self.keys)
        }

    def cell_of(self, i: int) -> CellKey:
        return self.keys[int(self.grid.point_cell[i])]

    def points_in(self, cell: Iterable[int]) -> np.ndarray:
        return self.cells.get(tuple(cell), _EMPTY)

    def neighbor_cells(self, cell: Iterable[int]) -> Iterator[CellKey]:
        """The eps-neighbour cells of a non-empty ``cell``, in row order."""
        adjacency = self.grid.adjacency()
        t = self.index[tuple(cell)]
        for j in adjacency.indices[adjacency.indptr[t]:adjacency.indptr[t + 1]].tolist():
            yield self.keys[j]

    def neighbor_cell_pairs(
        self, subset: Optional[Iterable[CellKey]] = None
    ) -> List[Tuple[CellKey, CellKey]]:
        """Each unordered neighbour pair once, lexicographically smaller cell first."""
        if subset is None:
            ids = np.arange(len(self.keys), dtype=np.int64)
        else:
            ids = np.unique(np.array(
                [self.index[c] for c in map(tuple, subset) if c in self.index],
                dtype=np.int64,
            ))
        from .adjacency import neighbor_cell_pair_arrays

        ii, jj, _ = neighbor_cell_pair_arrays(self.grid, subset=ids)
        return [
            (self.keys[ids[i]], self.keys[ids[j]]) for i, j in zip(ii.tolist(), jj.tolist())
        ]
