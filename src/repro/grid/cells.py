"""The d-dimensional grid ``T`` underlying the paper's algorithms.

Sections 2.2 / 3.2 / 4.4 all impose a grid on the data space whose cells are
hyper-squares with side length ``eps / sqrt(d)``.  Two facts drive every use:

* any two points in the same cell are within distance ``eps`` of each other;
* a point's eps-ball can only reach points in the cell's *eps-neighbour*
  cells — cells whose minimum box distance to it is at most ``eps`` — and
  there are only ``O((sqrt(d)+2)^d) = O(1)`` of those for fixed ``d``
  (21 in 2D, as the paper notes).

:class:`Grid` maps points to integer cell coordinates, groups point indices
per non-empty cell, and builds the eps-neighbour adjacency of the non-empty
cells once, in CSR form, with whichever of two builders has less to do:
the *offset probe* (one membership pass over the cells per entry of the
cached offset table) or the *coarse-bucket join* (cells bucketed by
``coords // reach``, candidate pairs drawn only from adjacent buckets).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.config import chunk_budget
from repro.errors import ParameterError
from repro.grid import counters

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
        # The offset table grows fast with d (841 entries at d = 4, 6,095
        # at d = 5, 257,675 at d = 7) whatever the number of non-empty
        # cells; :meth:`_build_adjacency` picks the builder that scales
        # with the cells instead.  Built lazily on first neighbour query.
        self._adjacency: _CSRAdjacency | None = None

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

    def adjacency(self) -> _CSRAdjacency:
        """The eps-neighbour cell adjacency in CSR form, built once per grid.

        Cell ids are positions in the grid's cell order (lexicographic by
        coordinate), the id space of the staged kernels' ``GridSoA``.
        """
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        return self._adjacency

    def _build_adjacency(self) -> _CSRAdjacency:
        """Build the CSR adjacency with the builder that has less to do.

        The offset probe does ``m x |offsets|`` packed-key lookups however
        few cells exist; the coarse-bucket join does one lookup per
        (bucket, adjacent bucket) and then checks ``C`` candidate cell
        pairs against the offset table, where ``C`` — the ordered pairs of
        cells in adjacent buckets — is read off the bucket counts before
        any expansion.  The
        join runs when ``C < _JOIN_RATIO * m * |offsets|``: sparse and
        high-``d`` grids.  Dense low-``d`` grids keep the probe.  Both keep
        exactly the pairs of cells whose offset is in the offset table;
        only the order inside a row differs (offset-table order for the
        probe, candidate order for the join), and no consumer depends on
        it.  Reported through the ``adjacency_*`` kernel counters.
        """
        keys = list(self._cells.keys())
        index = {c: t for t, c in enumerate(keys)}
        m = len(keys)
        if m < 2:
            return _CSRAdjacency(keys, np.zeros(m + 1, dtype=np.int64), _EMPTY_IDX, index)
        coords = np.asarray(keys, dtype=np.int64).reshape(m, self.dim)
        reach = int(np.abs(self._offsets).max())
        plan = _BucketPlan(coords, reach)
        probe_work = m * len(self._offsets)
        counters.add("adjacency_candidates", plan.candidates)
        counters.add("adjacency_probe_work", probe_work)
        if plan.candidates < _JOIN_RATIO * probe_work:
            counters.add("adjacency_join", 1)
            ii, jj = plan.join(coords, self._offsets)
        else:
            counters.add("adjacency_probe", 1)
            nonzero = self._offsets[(self._offsets != 0).any(axis=1)]
            hits = list(_offset_hits(coords, nonzero, reach))
            ii = np.concatenate([h[0] for h in hits] or [_EMPTY_IDX])
            jj = np.concatenate([h[1] for h in hits] or [_EMPTY_IDX])
        counters.add("adjacency_entries", len(ii))
        # Stable sort by source cell: each row keeps its builder's order.
        order = np.argsort(ii, kind="stable")
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(ii, minlength=m), out=indptr[1:])
        return _CSRAdjacency(keys, indptr, jj[order], index)

    @property
    def uses_allpairs_adjacency(self) -> bool:
        """Always False: the all-pairs adjacency regime no longer exists.

        The coarse-bucket join replaced it (see :meth:`_build_adjacency`);
        the property stays for benchmark code that still reads it.
        """
        return False

    def warm_neighbors(self) -> None:
        """Force the (cached) adjacency build *now*.

        The pipeline calls it during the grid phase so the cost is charged
        where it belongs, and the cores fan-out calls it before forking
        workers so every worker inherits the warm table instead of each
        rebuilding it.
        """
        self.adjacency()

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
            yield from self.adjacency().row(cell)
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
        a Python-level yield per pair.  ``keys`` lists the cells (of
        ``subset``, if given) in grid order.  The pairs are the cached
        adjacency's entries ``a -> b`` with ``b > a``; cells are numbered
        in lexicographic coordinate order, so every ``i``-side cell
        precedes its ``j`` partner lexicographically — the orientation
        contract of :meth:`neighbor_cell_pairs`.
        """
        adjacency = self.adjacency()
        m = len(adjacency.keys)
        if subset is None:
            ids = np.arange(m, dtype=np.int64)
        else:
            index = adjacency.index
            ids = np.unique(np.fromiter(
                (index[c] for c in map(tuple, subset) if c in index), dtype=np.int64
            ))
        sub_keys = [adjacency.keys[t] for t in ids.tolist()]
        if len(ids) < 2:
            return sub_keys, _EMPTY_IDX, _EMPTY_IDX
        src = np.repeat(np.arange(m, dtype=np.int64), np.diff(adjacency.indptr))
        dst = adjacency.indices
        keep = dst > src
        if len(ids) < m:
            position = np.full(m, -1, dtype=np.int64)
            position[ids] = np.arange(len(ids))
            keep &= (position[src] >= 0) & (position[dst] >= 0)
            return sub_keys, position[src[keep]], position[dst[keep]]
        return sub_keys, src[keep], dst[keep]

    def neighbor_cell_pairs(self, subset=None) -> Iterator[Tuple[CellCoord, CellCoord]]:
        """Yield each unordered pair of distinct eps-neighbour cells once.

        ``subset`` optionally restricts both endpoints to a collection of
        cells (e.g. the core cells when building the graph ``G``).  Each
        pair comes out once, lexicographically smaller cell first.
        """
        keys, ii, jj = self.neighbor_cell_pair_arrays(subset)
        for i, j in zip(ii.tolist(), jj.tolist()):
            yield keys[i], keys[j]


#: The coarse-bucket join builds the adjacency when its candidate count is
#: below this fraction of the offset probe's ``m x |offsets|`` lookups.
#: Measured on a 2-CPU Xeon: the 5-D to 7-D grids tried sit at ratios
#: 0.0003-0.15, where the join beat the probe and the old all-pairs build
#: by 3-40x; the dense 3-D and 4-D benchmark grids sit at 0.23-1.33 and
#: keep the probe (at 1.33, a PAMAP2-like 4-D grid, the join was ~1.1x
#: slower).
_JOIN_RATIO = 0.2


class _BucketPlan:
    """Cells grouped into coarse buckets ``coords // reach``.

    Two cells within an offset-table offset differ by at most ``reach``
    per axis, so their buckets differ by at most one per axis: every
    neighbour pair lies in one bucket or in two of the ``3^d`` adjacent
    ones.  The plan lists those bucket pairs once each (one orientation,
    found with the probe's packed-key lookup over the buckets), and
    ``candidates`` is the number of ordered cell pairs they span,
    self-pairs included — the join's work, comparable with the probe's
    ``m x |offsets|``.
    """

    def __init__(self, coords: np.ndarray, reach: int) -> None:
        m, d = coords.shape
        self.reach = reach
        buckets = coords // reach
        self.order = np.lexsort(buckets.T[::-1])
        ordered = buckets[self.order]
        change = np.any(ordered[1:] != ordered[:-1], axis=1)
        self.starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
        self.counts = np.diff(np.append(self.starts, m))
        # The 3^d bucket steps in lexicographic order; those after the zero
        # step (the middle row) are the positive half, one per +/- pair.
        steps = np.array(np.meshgrid(*[np.arange(-1, 2)] * d, indexing="ij"))
        deltas = steps.reshape(d, -1).T[3 ** d // 2 + 1:]
        within = np.arange(len(self.starts), dtype=np.int64)
        hits = list(_offset_hits(ordered[self.starts], deltas, 1))
        self.pu = np.concatenate([within] + [h[0] for h in hits])
        self.pv = np.concatenate([within] + [h[1] for h in hits])
        counts = self.counts
        self.candidates = int(
            2 * np.dot(counts[self.pu], counts[self.pv]) - np.dot(counts, counts)
        )

    def join(self, coords: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Both orientations of every neighbour pair, as cell-id arrays.

        Every cell of bucket ``u`` is expanded against bucket ``v`` (the
        cells after it, when ``u == v``), in blocks whose gathered
        coordinates stay within ``chunk_budget()`` entries, and a pair is
        kept when its
        offset is in ``offsets`` (the grid's offset table) — one lookup in
        a dense membership box, so the join keeps exactly the probe's
        pairs.
        """
        d = coords.shape[1]
        r = self.reach
        # Membership over [-(r + 1), r + 1]^d: clipping a candidate's
        # offset into the box maps every offset beyond the reach (adjacent
        # buckets reach 2r - 1) onto the outer shell, which holds no entry.
        box = 2 * r + 3
        radix = box ** np.arange(d - 1, -1, -1, dtype=np.int64)
        member = np.zeros(box ** d, dtype=bool)
        member[(offsets + (r + 1)) @ radix] = True
        local = np.ascontiguousarray(coords[self.order].T)  # axis-major, bucket order
        positions = np.arange(len(coords), dtype=np.int64)
        starts, counts = self.starts, self.counts
        rows = counts[self.pu]
        unit = np.repeat(np.arange(len(self.pu)), rows)
        a_pos = _take_ranges(positions, starts[self.pu], rows)
        u, v = self.pu[unit], self.pv[unit]
        same = u == v
        b_start = np.where(same, a_pos + 1, starts[v])
        b_len = np.where(same, starts[u] + counts[u] - a_pos - 1, counts[v])
        ends = np.cumsum(b_len)
        block = max(1, chunk_budget() // d)
        kept_a: List[np.ndarray] = []
        kept_b: List[np.ndarray] = []
        lo = 0
        while lo < len(ends):
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + block, side="right")))
            a = np.repeat(a_pos[lo:hi], b_len[lo:hi])
            b = _take_ranges(positions, b_start[lo:hi], b_len[lo:hi])
            # The candidates' packed box index, one axis at a time, so a
            # block never holds more than a few length-k arrays.
            flat = np.zeros(len(a), dtype=np.int64)
            for axis in range(d):
                col = local[axis]
                diff = col[b] - col[a]
                np.clip(diff, -(r + 1), r + 1, out=diff)
                diff += r + 1
                diff *= radix[axis]
                flat += diff
            ok = member[flat]
            kept_a.append(a[ok])
            kept_b.append(b[ok])
            lo = hi
        a = self.order[np.concatenate(kept_a or [_EMPTY_IDX])]
        b = self.order[np.concatenate(kept_b or [_EMPTY_IDX])]
        return np.concatenate([a, b]), np.concatenate([b, a])


def _offset_hits(
    coords: np.ndarray, offsets: np.ndarray, reach: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Per offset, index arrays ``(i, j)`` with ``coords[i] + off == coords[j]``.

    One scalar membership test per offset replaces ``|coords| x
    |offsets|`` dictionary probes: rows are packed into mixed-radix int64
    keys (the radix is padded by ``reach`` — at least every offset
    component's magnitude — so every shifted coordinate stays in range and
    a shift is a single scalar addition on the packed keys), with a
    structured-dtype row view as the overflow fallback.  Offsets that hit
    nothing are skipped.
    """
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


def _take_ranges(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + lengths[i]]``, vectorised.

    The ranges-to-indices expansion that replaces every per-cell
    ``np.concatenate`` loop: one ``repeat`` + one ``arange`` regardless of
    how many ranges are being flattened.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    row = np.repeat(np.arange(len(starts)), lengths)
    prefix = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lengths[:-1], out=prefix[1:])
    inner = np.arange(total, dtype=np.int64) - prefix[row]
    return values[starts[row] + inner]


class _CSRAdjacency:
    """Cell adjacency in compressed-sparse-row form.

    ``indices[indptr[t]:indptr[t + 1]]`` are the positions (into ``keys``)
    of cell ``keys[t]``'s neighbours.  Index arrays instead of per-cell
    Python lists keep the build fully vectorised.
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

    def counts(self, ids: np.ndarray) -> np.ndarray:
        """Row lengths of the cells ``ids``."""
        return self.indptr[ids + 1] - self.indptr[ids]

    def row(self, cell: CellCoord) -> Iterator[CellCoord]:
        t = self.index[cell]
        keys = self.keys
        for j in self.indices[self.indptr[t]:self.indptr[t + 1]].tolist():
            yield keys[j]


def _row_view(a: np.ndarray) -> np.ndarray:
    """A 1-D structured view of a 2-D integer array, one element per row.

    Structured elements compare field by field, i.e. lexicographically by
    row — the overflow-proof (but slower) fallback for row-wise membership
    queries when packed int64 keys cannot represent the coordinate range.
    """
    a = np.ascontiguousarray(a)
    return a.view([("", a.dtype)] * a.shape[1]).ravel()


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
