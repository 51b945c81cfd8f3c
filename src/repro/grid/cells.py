"""The d-dimensional grid ``T`` underlying the paper's algorithms.

Sections 2.2 / 3.2 / 4.4 all impose a grid on the data space whose cells are
hyper-squares with side length ``eps / sqrt(d)``.  Two facts drive every use:

* any two points in the same cell are within distance ``eps`` of each other;
* a point's eps-ball can only reach points in the cell's *eps-neighbour*
  cells — cells whose minimum box distance to it is at most ``eps`` — and
  there are only ``O((sqrt(d)+2)^d) = O(1)`` of those for fixed ``d``
  (21 in 2D, as the paper notes).

:class:`Grid` maps points to integer cell coordinates, groups point indices
per non-empty cell, and enumerates eps-neighbour cells via a cached offset
table shared across instances.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ParameterError

CellCoord = Tuple[int, ...]

#: Cache of neighbour-offset tables keyed by ``(d, reach, ratio_key)``.
_OFFSET_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}


def default_side(eps: float, d: int) -> float:
    """The paper's cell side length ``eps / sqrt(d)``."""
    return eps / np.sqrt(d)


def neighbor_offsets(eps: float, side: float, d: int) -> np.ndarray:
    """Integer offsets ``o`` such that cells ``c`` and ``c + o`` can contain a
    pair of points within distance ``eps``.

    A cell at offset ``o`` has a minimum box-to-box gap of
    ``max(|o_i| - 1, 0) * side`` along axis ``i``; the offset qualifies iff
    the Euclidean combination of those gaps is at most ``eps``.  The zero
    offset (the cell itself) is included.
    """
    if side <= 0:
        raise ParameterError(f"grid side must be positive; got {side}")
    reach = int(np.floor(eps / side)) + 1
    # side/eps is almost always 1/sqrt(d); key the cache on a fine rounding
    # of the ratio so custom sides do not collide.
    ratio_key = int(round(side / eps * 1e9))
    cache_key = (d, reach, ratio_key)
    cached = _OFFSET_CACHE.get(cache_key)
    if cached is not None:
        return cached

    axes = [np.arange(-reach, reach + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=1)
    gaps = np.maximum(np.abs(offsets) - 1, 0) * side
    ok = np.einsum("ij,ij->i", gaps, gaps) <= eps * eps + 1e-9 * eps * eps
    result = offsets[ok]
    _OFFSET_CACHE[cache_key] = result
    return result


class Grid:
    """A grid over a point set, with per-cell point groups.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    eps:
        The DBSCAN radius; determines neighbour reach.
    side:
        Cell side length.  Defaults to ``eps / sqrt(d)`` (the paper's
        choice, which guarantees same-cell pairs are within ``eps``).
    """

    def __init__(self, points: np.ndarray, eps: float, side: float | None = None) -> None:
        points = np.asarray(points, dtype=np.float64)
        if eps <= 0:
            raise ParameterError(f"eps must be positive; got {eps}")
        d = points.shape[1]
        self.points = points
        self.eps = float(eps)
        self.side = float(side) if side is not None else default_side(eps, d)
        if self.side <= 0:
            raise ParameterError(f"side must be positive; got {self.side}")
        self.dim = d

        coords = np.floor(points / self.side).astype(np.int64)
        self.point_cells = coords
        self._cells: Dict[CellCoord, np.ndarray] = _group_by_rows(coords)
        self._offsets = neighbor_offsets(self.eps, self.side, d)
        # In high dimensions the offset table explodes (~257k entries for
        # d = 7, ~1.6k for d = 4) far past the number of non-empty cells;
        # there, probing offsets is hopeless and a (chunked, vectorised)
        # all-pairs box-distance computation builds the full adjacency map
        # instead.  Built lazily on first neighbour query.
        self._adjacency: Dict[CellCoord, List[CellCoord]] | _CSRAdjacency | None = None
        m = len(self._cells)
        self._use_allpairs = len(self._offsets) > 4 * max(m, 64)

    # ------------------------------------------------------------- inspection

    def __len__(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def __contains__(self, cell: CellCoord) -> bool:
        return tuple(cell) in self._cells

    @property
    def cells(self) -> Dict[CellCoord, np.ndarray]:
        """Mapping of non-empty cell coordinate -> array of point indices."""
        return self._cells

    def cell_of(self, i: int) -> CellCoord:
        """Cell coordinate of point ``i``."""
        return tuple(int(c) for c in self.point_cells[i])

    def points_in(self, cell: CellCoord) -> np.ndarray:
        """Indices of the points covered by ``cell`` (empty array if none)."""
        return self._cells.get(tuple(cell), _EMPTY_IDX)

    # ------------------------------------------------------------- neighbours

    def _ensure_adjacency(self):
        """Build (once) the full cell-adjacency map.

        Low dimensions use the vectorised offset probe and store the map in
        CSR form (index arrays, no per-cell Python lists); the high-``d``
        regime, where the offset table dwarfs the cell count, falls back to
        all-pairs box tests (:meth:`_adjacency_all_pairs`) and a plain dict.
        :meth:`neighbor_cells` reads either representation.
        """
        if self._adjacency is not None:
            return self._adjacency
        if self._use_allpairs:
            self._adjacency = self._adjacency_all_pairs()
        else:
            self._adjacency = self._adjacency_from_offsets()
        return self._adjacency

    def _adjacency_from_offsets(self) -> "_CSRAdjacency":
        """CSR adjacency via the vectorised offset probe.

        Each cell's neighbours come out in offset-table order — the same
        order the old per-cell probing loop yielded them in, which callers
        that scan neighbours lazily (labeling early-exit) may observe.
        """
        keys = list(self._cells.keys())
        index = {c: t for t, c in enumerate(keys)}
        m = len(keys)
        if m < 2:
            return _CSRAdjacency(
                keys, np.zeros(m + 1, dtype=np.int64), _EMPTY_IDX, index
            )
        coords = np.asarray(keys, dtype=np.int64).reshape(m, self.dim)
        nonzero = self._offsets[(self._offsets != 0).any(axis=1)]
        i_parts: List[np.ndarray] = []
        j_parts: List[np.ndarray] = []
        for i_arr, j_arr in self._iter_offset_hits(coords, nonzero):
            i_parts.append(i_arr)
            j_parts.append(j_arr)
        if not i_parts:
            return _CSRAdjacency(
                keys, np.zeros(m + 1, dtype=np.int64), _EMPTY_IDX, index
            )
        ii = np.concatenate(i_parts)
        jj = np.concatenate(j_parts)
        # Stable sort by source cell keeps each row in offset-table order
        # (the concatenation order of the per-offset hit arrays).
        order = np.argsort(ii, kind="stable")
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(ii, minlength=m))]
        ).astype(np.int64)
        return _CSRAdjacency(keys, indptr, jj[order], index)

    def _iter_offset_hits(
        self, coords: np.ndarray, offsets: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Per offset, index arrays ``(i, j)`` with ``coords[i] + off == coords[j]``.

        One scalar membership test per offset replaces ``|coords| x
        |offsets|`` dictionary probes: rows are packed into mixed-radix
        int64 keys (the radix is padded by the offset reach, so every
        shifted coordinate stays in range and a shift is a single scalar
        addition on the packed keys), with a structured-dtype row view as
        the overflow fallback.  Offsets that hit nothing are skipped.
        """
        reach = int(np.abs(self._offsets).max())
        lo = coords.min(axis=0) - reach
        spans = coords.max(axis=0) + reach + 1 - lo
        if float(np.prod(spans.astype(np.float64))) < 2.0 ** 62:
            rev = np.concatenate([[1], np.cumprod(spans[::-1][:-1])])
            mults = rev[::-1]
            base = (coords - lo) @ mults
            shifts = [int(off @ mults) for off in offsets]
        else:  # packed keys would overflow: fall back to structured rows
            base = _row_view(coords)
            shifts = None
        order = np.argsort(base, kind="stable")
        sorted_keys = base[order]
        last = len(sorted_keys) - 1
        for k, off in enumerate(offsets):
            shifted = base + shifts[k] if shifts is not None else _row_view(coords + off)
            pos = np.searchsorted(sorted_keys, shifted)
            np.minimum(pos, last, out=pos)
            hit = np.nonzero(sorted_keys[pos] == shifted)[0]
            if len(hit):
                yield hit, order[pos[hit]]

    def _adjacency_all_pairs(self) -> Dict[CellCoord, List[CellCoord]]:
        """Adjacency lists for every cell, by vectorised box tests.

        Chunked so the ``rows x cells`` distance blocks stay a few million
        elements regardless of the cell count.
        """
        keys = list(self._cells.keys())
        coords = np.asarray(keys, dtype=np.int64).reshape(len(keys), self.dim)
        limit = self.eps * self.eps * (1.0 + 1e-9)
        out: Dict[CellCoord, List[CellCoord]] = {}
        sub = max(1, 2_000_000 // max(len(keys) * self.dim, 1))
        for start in range(0, len(keys), sub):
            block = coords[start:start + sub]
            gaps = (np.maximum(np.abs(block[:, None, :] - coords[None, :, :]) - 1, 0)
                    * self.side)
            ok = np.einsum("bmd,bmd->bm", gaps, gaps) <= limit
            for bi, key in enumerate(keys[start:start + sub]):
                out[key] = [keys[j] for j in np.nonzero(ok[bi])[0] if keys[j] != key]
        return out

    @property
    def uses_allpairs_adjacency(self) -> bool:
        """True when adjacency comes from all-pairs box tests (high ``d``)."""
        return self._use_allpairs

    def warm_neighbors(self) -> None:
        """Force the (cached) adjacency build *now*.

        The pipeline calls it during the grid phase so the cost is charged
        where it belongs, and the cores fan-out calls it before forking
        workers so every worker inherits the warm table instead of each
        rebuilding it.
        """
        self._ensure_adjacency()

    def neighbor_cells(self, cell: CellCoord, *, include_self: bool = False) -> Iterator[CellCoord]:
        """Yield the non-empty eps-neighbour cells of ``cell``.

        The guarantee is one-sided, as in the paper: every cell that could
        hold a point within ``eps`` of a point of ``cell`` is yielded; a
        yielded cell may still turn out to hold no qualifying point.
        """
        cell = tuple(cell)
        if cell in self._cells:
            if include_self:
                yield cell
            adjacency = self._ensure_adjacency()
            if isinstance(adjacency, _CSRAdjacency):
                yield from adjacency.row(cell)
            else:
                yield from adjacency[cell]
            return
        # A coordinate with no points has no adjacency row; probe offsets.
        base = np.asarray(cell, dtype=np.int64)
        cells = self._cells
        for off in self._offsets:
            if not off.any():
                continue
            other = tuple((base + off).tolist())
            if other in cells:
                yield other

    def neighbor_points(self, cell: CellCoord, *, include_self: bool = False) -> np.ndarray:
        """Indices of all points in the eps-neighbour cells of ``cell``."""
        blocks = [self.points_in(c) for c in self.neighbor_cells(cell, include_self=include_self)]
        if not blocks:
            return _EMPTY_IDX
        return np.concatenate(blocks)

    def neighbor_cell_pair_arrays(
        self, subset=None
    ) -> Tuple[List[CellCoord], np.ndarray, np.ndarray]:
        """Index-array form of :meth:`neighbor_cell_pairs`.

        Returns ``(keys, i, j)`` where the pairs are
        ``(keys[i[t]], keys[j[t]])`` — the representation callers want when
        they post-filter pairs vectorised (e.g. dropping pairs whose
        endpoints a carried pre-union already connects) instead of paying
        a Python-level yield per pair.  ``i``-side cells precede their
        ``j`` partners lexicographically, matching the orientation contract
        of :meth:`neighbor_cell_pairs`.
        """
        cells = self._cells
        if subset is None:
            sub_keys = list(cells.keys())
        else:
            allowed = set(map(tuple, subset))
            sub_keys = [c for c in cells if c in allowed]
        empty = np.empty(0, dtype=np.int64)
        if len(sub_keys) < 2:
            return sub_keys, empty, empty
        if self._use_allpairs:
            index = {c: t for t, c in enumerate(sub_keys)}
            adjacency = self._ensure_adjacency()
            ii: List[int] = []
            jj: List[int] = []
            for t, cell in enumerate(sub_keys):
                for other in adjacency[cell]:
                    u = index.get(other)
                    if u is not None and cell < other:
                        ii.append(t)
                        jj.append(u)
            return sub_keys, np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64)
        coords = np.asarray(sub_keys, dtype=np.int64).reshape(len(sub_keys), self.dim)
        positive = self._offsets[_positive_offset_mask(self._offsets)]
        i_parts: List[np.ndarray] = []
        j_parts: List[np.ndarray] = []
        for i_arr, j_arr in self._iter_offset_hits(coords, positive):
            i_parts.append(i_arr)
            j_parts.append(j_arr)
        if not i_parts:
            return sub_keys, empty, empty
        return sub_keys, np.concatenate(i_parts), np.concatenate(j_parts)

    def neighbor_cell_pairs(self, subset=None) -> Iterator[Tuple[CellCoord, CellCoord]]:
        """Yield each unordered pair of distinct eps-neighbour cells once.

        ``subset`` optionally restricts both endpoints to a collection of
        cells (e.g. the core cells when building the graph ``G``).
        Deduplication uses the lexicographic order of the offset vector, so
        the pair ``(c, c + o)`` is emitted only for positive offsets.
        """
        keys, ii, jj = self.neighbor_cell_pair_arrays(subset)
        for i, j in zip(ii.tolist(), jj.tolist()):
            yield keys[i], keys[j]


class _CSRAdjacency:
    """Cell adjacency in compressed-sparse-row form.

    ``indices[indptr[t]:indptr[t + 1]]`` are the positions (into ``keys``)
    of cell ``keys[t]``'s neighbours, in offset-table order.  Index arrays
    instead of per-cell Python lists keep the build fully vectorised.
    """

    __slots__ = ("keys", "indptr", "indices", "index")

    def __init__(
        self,
        keys: List[CellCoord],
        indptr: np.ndarray,
        indices: np.ndarray,
        index: Dict[CellCoord, int],
    ) -> None:
        self.keys = keys
        self.indptr = indptr
        self.indices = indices
        self.index = index

    def row(self, cell: CellCoord) -> Iterator[CellCoord]:
        t = self.index[cell]
        keys = self.keys
        for j in self.indices[self.indptr[t]:self.indptr[t + 1]].tolist():
            yield keys[j]

    def __getitem__(self, cell: CellCoord) -> List[CellCoord]:
        """Dict-style row access, so CSR can stand in for the all-pairs
        adjacency dict."""
        return list(self.row(cell))


def _row_view(a: np.ndarray) -> np.ndarray:
    """A 1-D structured view of a 2-D integer array, one element per row.

    Structured elements compare field by field, i.e. lexicographically by
    row — the overflow-proof (but slower) fallback for row-wise membership
    queries when packed int64 keys cannot represent the coordinate range.
    """
    a = np.ascontiguousarray(a)
    return a.view([("", a.dtype)] * a.shape[1]).ravel()


def _positive_offset_mask(offsets: np.ndarray) -> np.ndarray:
    """Mask of lexicographically positive offsets (one direction per pair)."""
    nonzero = offsets != 0
    has_any = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    leading = offsets[np.arange(len(offsets)), first]
    return has_any & (leading > 0)


def _group_by_rows(coords: np.ndarray) -> Dict[CellCoord, np.ndarray]:
    """Group row indices of an integer matrix by identical rows.

    One stable ``np.lexsort`` is the whole bucketing pass: stability makes
    the indices inside each group come out already ascending (what the
    old code re-sorted per group), and the group bodies are zero-copy
    views into the single sorted index array.
    """
    if len(coords) == 0:
        return {}
    order = np.lexsort(coords.T[::-1])
    sorted_coords = coords[order]
    change = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    bounds = np.append(starts, len(coords))
    keys = sorted_coords[starts].tolist()
    groups: Dict[CellCoord, np.ndarray] = {}
    for i, key in enumerate(keys):
        groups[tuple(key)] = order[bounds[i]:bounds[i + 1]]
    return groups


_EMPTY_IDX = np.empty(0, dtype=np.int64)
