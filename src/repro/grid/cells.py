"""The d-dimensional grid ``T`` underlying the paper's algorithms.

Sections 2.2 / 3.2 / 4.4 all impose a grid on the data space whose cells are
hyper-squares with side length ``eps / sqrt(d)``.  Two facts drive every use:

* any two points in the same cell are within distance ``eps`` of each other;
* a point's eps-ball can only reach points in the cell's *eps-neighbour*
  cells — cells whose minimum box distance to it is at most ``eps`` — and
  there are only ``O((sqrt(d)+2)^d) = O(1)`` of those for fixed ``d``
  (21 in 2D, as the paper notes).

:class:`Grid` maps points to integer cell coordinates and stores the
non-empty cells as sorted arrays: one stable lexsort of the coordinates
(:func:`group_rows`) numbers the cells in lexicographic coordinate order
and lists the points cell by cell, so a cell is an int id into
``cell_start`` / ``cell_coords`` / ``sizes`` and every point knows its
cell id (``point_cell``).  The grid also builds the eps-neighbour
adjacency of the non-empty cells once, in CSR form over the same ids,
with whichever of two builders has less to do: the *offset probe*
(packed-key lookups of every cell against every entry of the cached
offset table) or the *coarse-bucket join* (cells bucketed by
``coords // reach``, candidate pairs drawn only from adjacent buckets).
Each row lists its inner ring (Chebyshev-distance-1 cells) first, so the
kernels can work nearest ring first.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.config import chunk_budget
from repro.errors import ParameterError
from repro.grid import counters

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
    """A grid over a point set, stored as its sorted cell arrays.

    The non-empty cells are numbered ``0 .. m-1`` in lexicographic
    coordinate order, and that id is the only name a cell has below the
    constructor.  Cell ``t`` lies at integer coordinate ``cell_coords[t]``
    and owns the ``sizes[t]`` point indices
    ``order[cell_start[t] : cell_start[t + 1]]`` (ascending);
    ``offsets`` is ``cell_start[:-1]`` and ``point_cell[i]`` is point
    ``i``'s cell id.

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
        # One stable lexsort: lexicographic cell ids, and each cell's
        # points ascending.
        self.order, self.cell_start = group_rows(coords)
        self.offsets = self.cell_start[:-1]
        self.sizes = np.diff(self.cell_start)
        self.cell_coords = coords[self.order[self.offsets]]
        self.point_cell = np.empty(len(points), dtype=np.int64)
        self.point_cell[self.order] = np.repeat(
            np.arange(len(self.sizes), dtype=np.int64), self.sizes
        )
        self._offset_table = neighbor_offsets(self.eps, self.side, d)
        # The offset table grows fast with d (841 entries at d = 4, 6,095
        # at d = 5, 257,675 at d = 7) whatever the number of non-empty
        # cells; :meth:`_build_adjacency` picks the builder that scales
        # with the cells instead.  Built lazily on first neighbour query.
        self._adjacency: _CSRAdjacency | None = None

    def __len__(self) -> int:
        """Number of non-empty cells."""
        return len(self.sizes)

    @property
    def nbytes(self) -> int:
        """Bytes the grid's own arrays hold, its adjacency included once built.

        The point block is the caller's and is not counted, and neither is
        the offset table, which every grid of one ``d`` (and eps/side
        ratio) shares through the module cache.
        """
        own = (self.order, self.cell_start, self.sizes, self.cell_coords,
               self.point_cell)
        total = sum(a.nbytes for a in own)
        if self._adjacency is not None:
            adj = self._adjacency
            total += adj.indptr.nbytes + adj.indices.nbytes + adj.inner.nbytes
        return int(total)

    # ------------------------------------------------------------- neighbours

    def adjacency(self) -> _CSRAdjacency:
        """The eps-neighbour cell adjacency in CSR form, built once per grid.

        Row ``t`` lists the ids of cell ``t``'s eps-neighbour cells.  The
        guarantee is one-sided, as in the paper: every cell that could
        hold a point within ``eps`` of a point of cell ``t`` is listed; a
        listed cell may still hold no qualifying point.
        """
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        return self._adjacency

    def _build_adjacency(self) -> _CSRAdjacency:
        """Build the ring-ordered CSR adjacency with the cheaper builder.

        The offset probe does ``m x |offsets|`` packed-key lookups however
        few cells exist; the coarse-bucket join does one lookup per
        (bucket, adjacent bucket) and then checks ``C`` candidate cell
        pairs against the offset table, where ``C`` — the ordered pairs of
        cells in adjacent buckets — is read off the bucket counts before
        any expansion.  The join runs when ``C < _JOIN_RATIO * m *
        |offsets|``: sparse and high-``d`` grids.  Dense low-``d`` grids
        keep the probe.  Both keep exactly the pairs of cells whose offset
        is in the offset table.

        Every row lists its *inner ring* first — the neighbours at
        Chebyshev distance 1, which with side ``eps / sqrt(d)`` are the
        ones most likely to hold points within ``eps`` — and
        ``inner[t]`` counts them; the rest of the row is the outer shell.
        The probe gets that order for free: it looks the inner-ring
        offsets up first, row-major (see :func:`_offset_hits`).  The join
        flags each pair's ring while it checks the offset and sorts by
        (row, ring).  Both hand over the ids and the per-row entry and
        inner-ring counts, never a per-entry row array.  Cell ids are
        int32 (int64 only past ``2**31`` cells).  Reported through the
        ``adjacency_*`` kernel counters.
        """
        m = len(self)
        id_dtype = np.int32 if m < 2 ** 31 else np.int64
        if m < 2:
            return _CSRAdjacency(
                np.zeros(m + 1, dtype=np.int64), np.empty(0, dtype=id_dtype),
                np.zeros(m, dtype=np.int64),
            )
        coords = self.cell_coords
        table = self._offset_table
        reach = int(np.abs(table).max())
        plan = _BucketPlan(coords, reach)
        probe_work = m * len(table)
        counters.add("adjacency_candidates", plan.candidates)
        counters.add("adjacency_probe_work", probe_work)
        if plan.candidates < _JOIN_RATIO * probe_work:
            counters.add("adjacency_join", 1)
            indices, counts, inner = plan.join(coords, table)
        else:
            counters.add("adjacency_probe", 1)
            ring = np.abs(table).max(axis=1)
            # Non-zero offsets, inner ring first; stable, so each ring
            # keeps table order.
            order = np.argsort(ring[ring > 0] > 1, kind="stable")
            nonzero = table[ring > 0][order]
            indices, counts, inner, direct = _offset_hits(
                coords, nonzero, reach, np.count_nonzero(ring == 1)
            )
            if direct:
                counters.add("adjacency_table", 1)
        indices = indices.astype(id_dtype, copy=False)
        counters.add("adjacency_entries", len(indices))
        counters.add("adjacency_inner_entries", int(inner.sum()))
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return _CSRAdjacency(indptr, indices, inner)

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
        d = coords.shape[1]
        self.reach = reach
        buckets = coords // reach
        self.order, bounds = group_rows(buckets)
        self.starts = bounds[:-1]
        self.counts = np.diff(bounds)
        # The 3^d bucket steps in lexicographic order; those after the zero
        # step (the middle row) are the positive half, one per +/- pair.
        steps = np.array(np.meshgrid(*[np.arange(-1, 2)] * d, indexing="ij"))
        deltas = steps.reshape(d, -1).T[3 ** d // 2 + 1:]
        within = np.arange(len(self.starts), dtype=np.int64)
        hit_v, per_bucket, _, _ = _offset_hits(buckets[self.order[self.starts]], deltas, 1)
        self.pu = np.concatenate([within, np.repeat(within, per_bucket)])
        self.pv = np.concatenate([within, hit_v])
        counts = self.counts
        self.candidates = int(
            2 * np.dot(counts[self.pu], counts[self.pv]) - np.dot(counts, counts)
        )

    def join(
        self, coords: np.ndarray, offsets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both orientations of every neighbour pair, in CSR form.

        Returns ``(j, counts, inner)``: the partner ids sorted by row,
        each row's inner-ring pairs (Chebyshev distance 1) first, and per
        row its entry count and inner-ring count.  Every cell of bucket
        ``u`` is expanded against bucket ``v`` (the cells after it, when
        ``u == v``), in
        blocks whose gathered coordinates stay within ``chunk_budget()``
        entries, and a pair is kept when its offset is in ``offsets`` (the
        grid's offset table) — one lookup in a dense membership box, so
        the join keeps exactly the probe's pairs.
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
        kept_outer: List[np.ndarray] = []
        lo = 0
        while lo < len(ends):
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + block, side="right")))
            a = np.repeat(a_pos[lo:hi], b_len[lo:hi])
            b = _take_ranges(positions, b_start[lo:hi], b_len[lo:hi])
            # The candidates' packed box index and ring, one axis at a
            # time, so a block never holds more than a few length-k arrays.
            flat = np.zeros(len(a), dtype=np.int64)
            outer = np.zeros(len(a), dtype=bool)
            for axis in range(d):
                col = local[axis]
                diff = col[b] - col[a]
                outer |= np.abs(diff) > 1
                np.clip(diff, -(r + 1), r + 1, out=diff)
                diff += r + 1
                diff *= radix[axis]
                flat += diff
            ok = member[flat]
            kept_a.append(a[ok])
            kept_b.append(b[ok])
            kept_outer.append(outer[ok])
            lo = hi
        a = self.order[np.concatenate(kept_a or [_EMPTY_IDX])]
        b = self.order[np.concatenate(kept_b or [_EMPTY_IDX])]
        outer = np.concatenate(kept_outer or [np.zeros(0, dtype=bool)])
        ii, jj, outer = np.concatenate([a, b]), np.concatenate([b, a]), np.tile(outer, 2)
        m = len(coords)
        counts = np.bincount(ii, minlength=m)
        inner = np.bincount(ii[~outer], minlength=m)
        return jj[np.lexsort((outer, ii))], counts, inner


def _offset_hits(
    coords: np.ndarray, offsets: np.ndarray, reach: int, split: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The cells ``j`` with ``coords[i] + offsets[k] == coords[j]``, in CSR form.

    Returns ``(j, counts, head, direct)``: the hit ids row-major — ``i``
    ascending, and inside a row in ``offsets`` order — so a caller that
    lists the offsets in the order it wants its CSR rows gets them with no
    sort; ``counts[i]`` is row ``i``'s hit count and ``head[i]`` the part
    of it from ``offsets[:split]``; the flag says whether the direct table
    answered them (its ``j`` is int32, the searchsorted path's int64; it
    keeps no per-hit ``i`` or ``k`` past a block).  Rows are packed into
    mixed-radix int64 keys (the radix is padded by ``reach`` — at least
    every offset component's magnitude — so every shifted coordinate
    stays in range and a shift is a single scalar addition on the packed
    keys).  When the packed key span is small enough
    (:func:`_use_direct_table`), a dense int32 table indexed by packed key
    (cell id, or -1) answers whole (cells x offsets) row blocks (at most
    ``_PROBE_BLOCK`` and ``chunk_budget()`` lookups each) with one gather
    each.  Otherwise a ``searchsorted`` over the sorted keys answers one
    offset at a time (a structured-dtype row view is the overflow
    fallback), and one stable sort by ``i`` restores the row order.
    """
    m = len(coords)
    lo = coords.min(axis=0) - reach
    spans = coords.max(axis=0) + reach + 1 - lo
    span_product = float(np.prod(spans.astype(np.float64)))
    if span_product < 2.0 ** 62:
        rev = np.concatenate([[1], np.cumprod(spans[::-1][:-1])])
        mults = rev[::-1]
        base = (coords - lo) @ mults
        shifts = offsets @ mults
        if _use_direct_table(span_product, m * len(offsets)):
            table = np.full(int(span_product), -1, dtype=np.int32)
            table[base] = np.arange(m, dtype=np.int32)
            rows = max(1, min(chunk_budget(), _PROBE_BLOCK) // max(1, len(offsets)))
            counts = np.zeros(m, dtype=np.int64)
            head = np.zeros(m, dtype=np.int64)
            # Only the int32 hits outlive a block: its (rows x offsets)
            # mask reduces to the row counts at once.
            hits: List[np.ndarray] = [np.empty(0, dtype=np.int32)]
            for start in range(0, m, rows):
                found = table[base[start:start + rows, None] + shifts]
                hit = found >= 0
                hits.append(found[hit])
                counts[start:start + rows] = np.count_nonzero(hit, axis=1)
                head[start:start + rows] = np.count_nonzero(hit[:, :split], axis=1)
            return np.concatenate(hits), counts, head, True
    else:  # packed keys would overflow: fall back to structured rows
        base = _row_view(coords)
        shifts = None
    order = np.argsort(base, kind="stable")
    sorted_keys = base[order]
    last = len(sorted_keys) - 1
    hit_i: List[np.ndarray] = [_EMPTY_IDX]
    hit_j: List[np.ndarray] = [_EMPTY_IDX]
    for k, off in enumerate(offsets):
        shifted = base + shifts[k] if shifts is not None else _row_view(coords + off)
        pos = np.searchsorted(sorted_keys, shifted)
        np.minimum(pos, last, out=pos)
        hit = np.nonzero(sorted_keys[pos] == shifted)[0]
        hit_i.append(hit)
        hit_j.append(order[pos[hit]])
    i = np.concatenate(hit_i)
    head = np.bincount(np.concatenate(hit_i[:split + 1]), minlength=m)
    j = np.concatenate(hit_j)[np.argsort(i, kind="stable")]
    return j, np.bincount(i, minlength=m), head, False


#: Lookups per row block of the direct-table probe.  The block's index,
#: hit and mask arrays stay cache-sized (~3.5 MB); measured on a 2-CPU
#: Xeon for a PAMAP2-like 4-D grid (25M lookups), 256K-entry blocks ran
#: the probe in ~0.26 s against ~0.46 s for 4M-entry ones.  The chunk
#: budget still caps it.
_PROBE_BLOCK = 1 << 18


def _use_direct_table(span_product: float, lookups: int) -> bool:
    """Whether :func:`_offset_hits` answers through a direct-indexed table.

    The table has one int32 entry per packed key in the span, so it pays
    off when the span is at most the probe's own lookup count, and it is
    capped at ``2 * chunk_budget()`` entries — the byte size of one
    default distance chunk — so its memory stays bounded on any grid.
    """
    cap = min(2 * chunk_budget(), 2 ** 31 - 1)
    return span_product <= lookups and span_product <= cap


def _take_ranges(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + lengths[i]]``, vectorised.

    The ranges-to-indices expansion that replaces every per-cell
    ``np.concatenate`` loop: the gather positions are one cumulative sum
    over unit steps, with a jump to the next range's start at each range
    boundary, so the expansion holds a single index array of the output's
    length (the kernels flatten tens of millions of neighbour entries
    through here, so its temporaries set the core phase's peak memory).
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    nonempty = lengths > 0
    if not nonempty.all():
        starts, lengths = starts[nonempty], lengths[nonempty]
    idx = np.ones(total, dtype=np.int64)
    idx[0] = starts[0]
    idx[np.cumsum(lengths[:-1])] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    np.cumsum(idx, out=idx)
    return values[idx]


class _CSRAdjacency:
    """Cell adjacency in compressed-sparse-row form, inner ring first.

    ``indices[indptr[t]:indptr[t + 1]]`` are the ids of cell ``t``'s
    neighbours (int32 below ``2**31`` cells; ``indptr`` is int64); the
    first ``inner[t]`` of them are its inner-ring (Chebyshev distance 1)
    neighbours, the rest its outer shell.
    """

    __slots__ = ("indptr", "indices", "inner")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, inner: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.inner = inner

    def counts(self, ids: np.ndarray) -> np.ndarray:
        """Row lengths of the cells ``ids``."""
        return self.indptr[ids + 1] - self.indptr[ids]


def _row_view(a: np.ndarray) -> np.ndarray:
    """A 1-D structured view of a 2-D integer array, one element per row.

    Structured elements compare field by field, i.e. lexicographically by
    row — the overflow-proof (but slower) fallback for row-wise membership
    queries when packed int64 keys cannot represent the coordinate range.
    """
    a = np.ascontiguousarray(a)
    return a.view([("", a.dtype)] * a.shape[1]).ravel()


def group_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the rows of an integer matrix by identical rows.

    Returns ``(order, starts)``: the row indices in lexicographic row
    order, and the ``g + 1`` boundaries of the ``g`` groups in it (group
    ``t`` is ``order[starts[t] : starts[t + 1]]``).  One stable
    ``np.lexsort`` does it all: groups come out in lexicographic order and
    the indices inside each group ascending.
    """
    n = len(keys)
    if n == 0:
        return _EMPTY_IDX, np.zeros(1, dtype=np.int64)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    change = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    return order, np.concatenate(([0], change, [n])).astype(np.int64)


_EMPTY_IDX = np.empty(0, dtype=np.int64)
