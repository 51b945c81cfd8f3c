"""Shared machinery of the staged core-labeling and border kernels.

A per-cell loop pays one Python iteration plus several small numpy calls
per grid cell — which dominates wall-clock on seed-spreader-style grids
where tens of thousands of cells hold only a handful of points each.
Following the phase structure of Wang/Gu/Shun ("Theoretically-Efficient
and Practical Parallel DBSCAN": mark-core -> cluster-core -> cluster-
border), :func:`repro.core.labeling.label_cores` and
:func:`repro.core.border.assign_borders` instead settle their phases with
staged, vectorised passes over the grid's sorted cell arrays
(:class:`~repro.grid.cells.Grid`: ``order`` / ``offsets`` / ``sizes``
and the CSR eps-neighbour adjacency in the same cell ids), with distances
from :func:`repro.geometry.distance.block_sq_dists`.  This module holds
what both passes share:

* the size-class and tile helpers that turn CSR rows into padded,
  batched distance blocks (padding waste < 2x, tiles bounded by the
  shared chunk budget), next to the grid's ``_take_ranges``;
* :class:`BorderAssignments` — the CSR result type of the border pass.

Both passes compute exactly the predicate of the per-cell references in
``tests/oracles/loops.py`` — ``|B(p, eps)| >= MinPts`` for cores, "every
cluster with a core point within ``eps``" for borders — against the
shared :func:`repro.geometry.distance.sq_radius` decision boundary, so
the results are byte-identical to them on every path that runs these
phases (serial pipeline, the parallel cores range workers, the
engine sweep's ``known_core`` carry, the resilient cascade, and the
fully-approximate extension).  The kernels report their funnels through
:mod:`repro.grid.counters` (``core_*`` / ``border_*``), which the
pipeline publishes under ``meta["kernel_counters"]`` next to the edge
phase's ``edge_*`` funnel.  Deadlines are polled once per size-class
tile — the batched-loop granularity of the FlatHierarchy frontier
traversal — not per cell.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.geometry import distance as dm
from repro.grid.cells import _take_ranges

_EMPTY = np.empty(0, dtype=np.int64)


def _size_classes(
    lengths: np.ndarray, queries: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """Group positions by the power-of-two class of ``lengths``.

    Rows inside one class are padded to the class *maximum*, so the
    padding waste is bounded by the class width (< 2x).  With
    ``queries`` (a second per-row extent, e.g. the query count of a
    cell's block) the class is the pair of both power-of-two classes, so
    the padding stays under 2x on each axis.  Classes come out in
    ascending size order; rows with a zero length are skipped entirely.
    """
    if len(lengths) == 0:
        return
    cls = np.zeros(len(lengths), dtype=np.int64)
    positive = lengths > 0
    cls[positive] = np.frexp(lengths[positive].astype(np.float64))[1]
    if queries is not None:
        q_cls = np.frexp(np.asarray(queries, dtype=np.float64))[1]
        cls = cls * 128 + q_cls  # int64 extents have exponents <= 64
    for c in np.unique(cls[positive]):
        yield np.nonzero(positive & (cls == c))[0]


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
