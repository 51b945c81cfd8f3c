"""Shared machinery of the staged core-labeling and border kernels.

A per-cell loop pays one Python iteration plus several small numpy calls
per grid cell — which dominates wall-clock on seed-spreader-style grids
where tens of thousands of cells hold only a handful of points each.
Following the phase structure of Wang/Gu/Shun ("Theoretically-Efficient
and Practical Parallel DBSCAN": mark-core -> cluster-core -> cluster-
border), :func:`repro.core.labeling.label_cores` and
:func:`repro.core.border.assign_borders` instead settle their phases with
staged, vectorised passes over the grid's dense cell arrays.  This module
holds what both passes share:

* :class:`GridSoA` / :func:`grid_soa` — the dense structure-of-arrays view
  of a grid's cells, cached per grid (the eps-neighbour adjacency is the
  grid's own CSR, :meth:`Grid.adjacency`, in the same cell ids);
* the size-class and tile helpers that turn CSR rows into padded,
  batched distance blocks (padding waste < 2x, tiles bounded by the
  shared chunk budget), next to the grid's ``_take_ranges``;
* :class:`BorderAssignments` — the CSR result type of the border pass.

Both passes compute exactly the predicate of the per-cell references in
``tests/oracles/loops.py`` — ``|B(p, eps)| >= MinPts`` for cores, "every
cluster with a core point within ``eps``" for borders — against the
shared :func:`repro.geometry.distance.sq_radius` decision boundary, so
the results are byte-identical to them on every path that runs these
phases (serial pipeline, the parallel cores shard workers, the
engine sweep's ``known_core`` carry, the resilient cascade, and the
fully-approximate extension).  The kernels report their funnels through
:mod:`repro.grid.counters` (``core_*`` / ``border_*``), which the
pipeline publishes under ``meta["kernel_counters"]`` next to the edge
phase's ``edge_*`` funnel.  Deadlines are polled once per size-class
tile — the batched-loop granularity of the FlatHierarchy frontier
traversal — not per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry import distance as dm
from repro.grid.cells import CellCoord, Grid, _take_ranges

_EMPTY = np.empty(0, dtype=np.int64)

#: Attribute name under which the per-grid dense arrays are cached on the
#: :class:`Grid` instance.  A grid's cells are immutable
#: once built, so the cache never invalidates; shard workers calling the
#: kernel once per shard reuse it instead of rebuilding per task.
_SOA_ATTR = "_corekernel_soa"


@dataclass
class GridSoA:
    """Dense structure-of-arrays view of a grid's cells.

    Cell ids are positions in the grid's cell insertion order — the id
    space of the grid's CSR adjacency (:meth:`Grid.adjacency`), which the
    kernels read from the grid itself, so a caller that only needs the
    cell layout (the sweep's pre-union carry) never triggers the
    adjacency build.  ``cat`` is the concatenation of every cell's
    point-index array in that order (cell ``t`` owns
    ``cat[offsets[t] : offsets[t] + sizes[t]]``).  ``point_sq`` caches
    every point's squared norm for the expanded-form distance tiles.
    """

    keys: List[CellCoord]
    index: Dict[CellCoord, int]
    sizes: np.ndarray
    offsets: np.ndarray
    cat: np.ndarray
    point_sq: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def point_cells(self) -> np.ndarray:
        """Dense cell id of every point, inverted from the ``cat`` layout."""
        out = np.empty(len(self.point_sq), dtype=np.int64)
        out[self.cat] = np.repeat(np.arange(len(self.keys), dtype=np.int64), self.sizes)
        return out


def grid_soa(grid: Grid) -> GridSoA:
    """The (cached) dense arrays for ``grid`` — built once per grid."""
    soa = getattr(grid, _SOA_ATTR, None)
    if soa is not None:
        return soa
    keys = list(grid.cells.keys())
    m = len(keys)
    index = {c: t for t, c in enumerate(keys)}
    points = grid.points
    point_sq = np.einsum("ij,ij->i", points, points)
    if m == 0:
        soa = GridSoA(keys, index, _EMPTY, _EMPTY.copy(), _EMPTY.copy(), point_sq)
        setattr(grid, _SOA_ATTR, soa)
        return soa
    sizes = np.fromiter(
        (len(idx) for idx in grid.cells.values()), dtype=np.int64, count=m
    )
    offsets = np.zeros(m, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    cat = np.concatenate(list(grid.cells.values()))
    soa = GridSoA(keys, index, sizes, offsets, cat, point_sq)
    setattr(grid, _SOA_ATTR, soa)
    return soa


def _work_cell_ids(
    grid: Grid,
    soa: GridSoA,
    cells,
    known_core: Optional[np.ndarray],
) -> Tuple[np.ndarray, bool]:
    """Dense ids of the cells one pass must visit, plus the carry flag.

    Mirrors the work-selection of the reference loops: an explicit
    ``cells`` iterable (shard restriction) wins; otherwise a ``known_core``
    carry restricts the pass to cells holding at least one unknown point;
    otherwise every cell is visited.  The carry flag is True exactly when
    the caller must pre-seed the mask with ``known_core`` wholesale.
    """
    if cells is not None:
        ids = [soa.index.get(tuple(c)) for c in cells]
        found = [t for t in ids if t is not None]
        return np.asarray(found, dtype=np.int64), False
    if known_core is not None and known_core.any():
        unknown = np.nonzero(~known_core)[0]
        if len(unknown) == 0:
            return _EMPTY, True
        return np.unique(soa.point_cells()[unknown]), True
    return np.arange(len(soa), dtype=np.int64), False


def _size_classes(lengths: np.ndarray) -> Iterator[np.ndarray]:
    """Group positions by the power-of-two class of ``lengths``.

    Rows inside one class are padded to the class *maximum*, so the
    padding waste is bounded by the class width (< 2x).  Classes come out
    in ascending size order; zero-length rows are skipped entirely.
    """
    if len(lengths) == 0:
        return
    cls = np.zeros(len(lengths), dtype=np.int64)
    positive = lengths > 0
    cls[positive] = np.frexp(lengths[positive].astype(np.float64))[1]
    for c in np.unique(cls[positive]):
        yield np.nonzero(cls == c)[0]


def _padded_rows(
    flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad the CSR rows ``flat[starts[i] : +lengths[i]]`` into a matrix.

    Returns ``(matrix, valid)`` of shape ``(len(starts), max(lengths))``;
    padded slots repeat the row's first entry and are masked out by
    ``valid``.
    """
    width = int(lengths.max())
    col = np.arange(width, dtype=np.int64)
    valid = col[None, :] < lengths[:, None]
    take = starts[:, None] + np.where(valid, col[None, :], 0)
    return flat[take], valid


def _tile_width(active: int, dim: int, remaining: int) -> int:
    """Columns per distance tile, bounded by the shared chunk budget."""
    budget = max(1, dm._chunk_budget() // max(1, active * max(dim, 1)))
    return max(1, min(remaining, budget))


def _gathered_sq_dists(
    points: np.ndarray,
    point_sq: np.ndarray,
    q_idx: np.ndarray,
    nbr_idx: np.ndarray,
) -> np.ndarray:
    """Squared distances between ``points[q_idx[r]]`` and each gathered row.

    The expanded form ``|a|^2 + |b|^2 - 2 a.b`` of
    :func:`repro.geometry.distance.pairwise_sq_dists`, evaluated on a
    row-specific gather (``nbr_idx`` has shape ``(rows, width)``) instead
    of a full cross product.  Decisions are made against the shared
    :func:`~repro.geometry.distance.sq_radius` boundary, whose slack
    absorbs the kernels' rounding differences.
    """
    q = points[q_idx]
    nbr = points[nbr_idx]
    out = (
        point_sq[q_idx][:, None]
        + point_sq[nbr_idx]
        - 2.0 * np.einsum("rd,rwd->rw", q, nbr)
    )
    np.maximum(out, 0.0, out=out)
    return out


# ------------------------------------------------------- border result type


class BorderAssignments:
    """CSR-backed mapping of border point -> sorted tuple of cluster ids.

    The staged border kernel's result: ``points`` holds the assigned
    border point indices (ascending), and point ``points[i]`` joins the
    clusters ``labels[indptr[i] : indptr[i + 1]]`` (each row sorted
    ascending, matching the reference loop's ``np.unique`` output).
    Implements the read-only mapping protocol, so every consumer of the
    classic ``Dict[int, Tuple[int, ...]]`` — ``build_clustering``,
    checkpoint flattening, plain ``dict(...)`` adoption — works unchanged.
    """

    __slots__ = ("points", "indptr", "labels", "_pos")

    def __init__(self, points: np.ndarray, indptr: np.ndarray, labels: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self._pos: Optional[Dict[int, int]] = None

    @classmethod
    def empty(cls) -> "BorderAssignments":
        return cls(_EMPTY, np.zeros(1, dtype=np.int64), _EMPTY)

    def _position(self, idx: int) -> int:
        if self._pos is None:
            self._pos = {int(p): i for i, p in enumerate(self.points)}
        return self._pos[int(idx)]

    def __getitem__(self, idx: int) -> Tuple[int, ...]:
        i = self._position(idx)  # raises KeyError for non-border points
        return tuple(
            int(c) for c in self.labels[self.indptr[i]:self.indptr[i + 1]]
        )

    def get(self, idx: int, default=None):
        try:
            return self[idx]
        except KeyError:
            return default

    def __contains__(self, idx) -> bool:
        try:
            self._position(idx)
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def __iter__(self):
        return iter(self.points.tolist())

    def __len__(self) -> int:
        return len(self.points)

    def keys(self):
        return self.points.tolist()

    def values(self):
        return [self[p] for p in self.points.tolist()]

    def items(self):
        return [(p, self[p]) for p in self.points.tolist()]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BorderAssignments):
            return (
                np.array_equal(self.points, other.points)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.labels, other.labels)
            )
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):  # pragma: no cover - mappings are unhashable
        raise TypeError("BorderAssignments is unhashable (mutable-mapping shaped)")

    def __reduce__(self):
        return (BorderAssignments, (self.points, self.indptr, self.labels))

    def __repr__(self) -> str:
        return f"BorderAssignments({len(self)} border points)"
