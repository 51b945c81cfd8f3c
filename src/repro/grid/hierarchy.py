"""Quadtree-like counting hierarchy for approximate range counting (Lemma 5).

Given a fixed radius ``eps`` and approximation constant ``rho``, an
*approximate range count query* at a point ``q`` returns an integer that is
guaranteed to lie between ``|B(q, eps) ∩ P|`` and ``|B(q, eps(1+rho)) ∩ P|``.

The structure follows Section 4.3 of the paper: a regular grid of side
``eps / sqrt(d)`` is refined recursively — each non-empty cell splits into
``2^d`` half-side children — until the side length drops to
``eps * rho / sqrt(d)``, so the hierarchy has
``h = max(1, 1 + ceil(log2(1/rho)))`` levels.  A query walks down from the
level-0 cells, pruning cells disjoint from ``B(q, eps)``, bulk-adding the
counts of cells fully inside ``B(q, eps(1+rho))``, and resolving deepest
cells by the intersect test (valid because a deepest cell has diameter at
most ``eps * rho``).

:class:`FlatHierarchy` stores that tree as level-ordered
structure-of-arrays (CSR child rows, one contiguous early-leaf point-index
array); its batched queries (:meth:`~FlatHierarchy.count_many` /
:meth:`~FlatHierarchy.contains_any_many`) advance a ``(query, node)``
frontier one level at a time with vectorised prune / bulk-add / descend
partitions.  The pointer-based rendition of the paper's pseudo-code (one
Python node per cell, one query at a time) lives in
``tests/oracles/counting.py`` as the differential oracle.  See
``docs/PERFORMANCE.md`` for the layout and the measured speedups
(``benchmarks/bench_lemma5_counting.py``).

Engineering refinement (documented deviation): a subtree holding at most
``_EXACT_LEAF_SIZE`` points is not subdivided further; such an *early leaf*
stores its point indices and is resolved by exact distance tests against
``eps``.  Both answers respect the Lemma 5 contract — the early leaf merely
returns a tighter count — and the structure becomes considerably smaller on
sparse cells.  Set ``exact_leaf_size=0`` to build the verbatim paper
structure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DataError
from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.cells import group_rows
from repro.runtime.deadline import Deadline
from repro.utils.validation import check_eps, check_rho

_EXACT_LEAF_SIZE = 8

#: Above this many candidate level-0 coordinates, a query scans the stored
#: roots instead of enumerating the coordinate box around ``q``.
_ENUMERATION_BUDGET = 4096

#: Queries per internal batch of the flat kernel: bounds the frontier and
#: candidate-probe intermediates no matter how many queries one
#: :meth:`FlatHierarchy.count_many` call carries.
_QUERY_CHUNK = 4096

_EMPTY = np.empty(0, dtype=np.int64)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + l) for s, l in zip(starts, lengths)])``
    without the Python loop (zero-length ranges contribute nothing)."""
    keep = lengths > 0
    if not keep.all():
        starts = starts[keep]
        lengths = lengths[keep]
    if len(starts) == 0:
        return _EMPTY
    ends = np.cumsum(lengths)
    out = np.ones(int(ends[-1]), dtype=np.int64)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(out)


class FlatHierarchy:
    """The Lemma 5 structure as level-ordered structure-of-arrays.

    Same tree as the pointer-based reference (``tests/oracles/counting.py``:
    identical node set, identical per-node prune / bulk-add / leaf
    decisions), stored flat: per level
    ``l`` the arrays ``coords[l] (m_l, d)``, ``counts[l]``, CSR child rows
    ``child_off[l] / child_n[l]`` into level ``l+1``, and early-leaf spans
    ``leaf_off[l] / leaf_n[l]`` (``-1`` = not a leaf) into one contiguous
    ``leaf_point_idx`` array.  Level-0 cells are additionally indexed by
    packed mixed-radix int64 keys for a vectorised ``np.searchsorted``
    candidate-root probe.

    Queries are *batched*: :meth:`count_many` / :meth:`contains_any_many`
    advance a ``(query_id, node_id)`` frontier one level at a time —
    vectorised box bounds per pair, one partition pass into pruned /
    bulk-added / leaf-resolved / descending pairs, one distance kernel call
    per level for all early-leaf pairs — so the per-node Python overhead of
    the reference structure is paid once per *level* per *batch* instead of
    once per node per query.  Scalar :meth:`count` / :meth:`contains_any`
    wrap a batch of one and honour the same Lemma 5 contract.
    """

    __slots__ = (
        "points", "eps", "rho", "dim", "side0", "n_levels",
        "_exact_leaf_size", "_sq_eps", "_sq_outer",
        "_coords", "_counts", "_child_off", "_child_n",
        "_leaf_off", "_leaf_n", "_leaf_point_idx",
        "_root_lo", "_root_hi", "_root_mults", "_root_keys", "_root_order",
    )

    def __init__(
        self,
        points: np.ndarray,
        eps: float,
        rho: float,
        exact_leaf_size: int = _EXACT_LEAF_SIZE,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise DataError("FlatHierarchy requires a non-empty (n, d) array")
        self.points = points
        self.eps = check_eps(eps)
        self.rho = check_rho(rho)
        self.dim = points.shape[1]
        self.side0 = self.eps / np.sqrt(self.dim)
        if self.rho >= 1.0:
            self.n_levels = 1
        else:
            self.n_levels = 1 + int(np.ceil(np.log2(1.0 / self.rho)))
        self._exact_leaf_size = max(0, int(exact_leaf_size))
        self._sq_eps = dm.sq_radius(self.eps)
        self._sq_outer = (self.eps * (1.0 + self.rho)) ** 2
        self._build_levels()
        self._index_roots()

    # -------------------------------------------------------------- build

    def _build_levels(self) -> None:
        """Non-recursive, level-synchronous build.

        Each level is one :func:`~repro.grid.cells.group_rows` pass: level
        0 groups the points by their level-0 cell, and level ``l+1`` groups
        the points of every *subdivided* level-``l`` node by ``(parent node
        id, child cell coordinate)`` — the parent id column keeps each
        parent's children contiguous (CSR rows), and the grouper's lexsort
        orders them by coordinate within the parent, exactly like the
        reference builder's per-node grouping.
        """
        leaf = self._exact_leaf_size
        self._coords: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._child_off: List[np.ndarray] = []
        self._child_n: List[np.ndarray] = []
        self._leaf_off: List[np.ndarray] = []
        self._leaf_n: List[np.ndarray] = []
        leaf_blocks: List[np.ndarray] = []
        leaf_base = 0

        coords0 = np.floor(self.points / self.side0).astype(np.int64)
        members, ptr = group_rows(coords0)
        coords = coords0[members[ptr[:-1]]]

        for level in range(self.n_levels):
            m = len(coords)
            counts = ptr[1:] - ptr[:-1]
            deepest = level == self.n_levels - 1
            leaf_mask = counts <= leaf
            split_mask = np.zeros(m, dtype=bool) if deepest else ~leaf_mask

            leaf_n = np.where(leaf_mask, counts, -1).astype(np.int64)
            leaf_off = np.zeros(m, dtype=np.int64)
            if leaf_mask.any():
                ln = counts[leaf_mask]
                leaf_off[leaf_mask] = leaf_base + np.concatenate(
                    [[0], np.cumsum(ln[:-1])]
                )
                leaf_blocks.append(
                    members[_concat_ranges(ptr[:-1][leaf_mask], ln)]
                )
                leaf_base += int(ln.sum())

            child_n = np.zeros(m, dtype=np.int64)
            child_off = np.zeros(m, dtype=np.int64)
            self._coords.append(coords)
            self._counts.append(counts.astype(np.int64))
            self._leaf_off.append(leaf_off)
            self._leaf_n.append(leaf_n)

            if not split_mask.any():
                self._child_off.append(child_off)
                self._child_n.append(child_n)
                break

            parents = np.nonzero(split_mask)[0]
            rows = _concat_ranges(ptr[:-1][split_mask], counts[split_mask])
            active = members[rows]
            pid = np.repeat(parents, counts[split_mask])
            child_side = self.side0 / (2 ** (level + 1))
            child_coords = np.floor(
                self.points[active] / child_side
            ).astype(np.int64)
            corder, ptr = group_rows(np.column_stack([pid, child_coords]))
            first = corder[ptr[:-1]]
            child_pid = pid[first]
            # Children arrive sorted by (parent, coordinate): each parent's
            # children are one contiguous CSR row of the next level.
            child_n = np.bincount(child_pid, minlength=m).astype(np.int64)
            child_off = np.concatenate([[0], np.cumsum(child_n)[:-1]])
            self._child_off.append(child_off)
            self._child_n.append(child_n)

            members = active[corder]
            coords = child_coords[first]

        self._leaf_point_idx = (
            np.concatenate(leaf_blocks) if leaf_blocks else _EMPTY
        )

    def _index_roots(self) -> None:
        """Sorted packed-key index over the level-0 cells.

        The radix spans the root bounding box, so any candidate coordinate
        (clipped into the box) packs into a unique int64 and one
        ``np.searchsorted`` answers a whole batch of membership probes.
        Falls back to coordinate scans when the packed keys would overflow.
        """
        roots = self._coords[0]
        self._root_lo = roots.min(axis=0)
        self._root_hi = roots.max(axis=0)
        spans = self._root_hi - self._root_lo + 1
        if float(np.prod(spans.astype(np.float64))) < 2.0 ** 62:
            rev = np.concatenate([[1], np.cumprod(spans[::-1][:-1])])
            mults = rev[::-1]
            keys = (roots - self._root_lo) @ mults
            order = np.argsort(keys, kind="stable")
            self._root_mults = mults
            self._root_keys = keys[order]
            self._root_order = order
        else:  # pragma: no cover - astronomically spread coordinates
            self._root_mults = None
            self._root_keys = None
            self._root_order = None

    # ------------------------------------------------------------- queries

    def count(self, q: np.ndarray) -> int:
        """Scalar :meth:`count_many` (same Lemma 5 contract as the reference)."""
        return int(self.count_many(np.asarray(q, dtype=np.float64)[None, :])[0])

    def contains_any(self, q: np.ndarray) -> bool:
        """Scalar :meth:`contains_any_many`."""
        return bool(
            self.contains_any_many(np.asarray(q, dtype=np.float64)[None, :])[0]
        )

    def count_many(
        self, queries: np.ndarray, *, deadline: Optional[Deadline] = None
    ) -> np.ndarray:
        """Approximate counts for every row of ``queries`` at once.

        Each answer independently satisfies the Lemma 5 sandwich
        ``[|B(q, eps) ∩ P|, |B(q, eps(1+rho)) ∩ P|]`` and equals the
        answer of the scalar :meth:`count` on that row.  A bounded
        ``deadline`` is polled once per traversal level per internal chunk,
        so even a single huge batch cannot overshoot its time budget by
        more than one level's worth of work.
        """
        queries = self._as_queries(queries)
        totals = np.zeros(len(queries), dtype=np.int64)
        for start in range(0, len(queries), _QUERY_CHUNK):
            chunk = slice(start, min(start + _QUERY_CHUNK, len(queries)))
            self._count_chunk(queries[chunk], totals[chunk], deadline)
        return totals

    def contains_any_many(
        self, queries: np.ndarray, *, deadline: Optional[Deadline] = None
    ) -> np.ndarray:
        """Batched :meth:`contains_any`: one bool per query row.

        ``True`` means some point lies within ``eps(1+rho)`` of the query;
        ``False`` means none lies within ``eps`` — the yes / no /
        don't-care contract of the rho-approximate edge rule.  A query
        retires from the frontier the moment its answer is decided.  A
        bounded ``deadline`` is polled per level per chunk (see
        :meth:`count_many`).
        """
        queries = self._as_queries(queries)
        answers = np.zeros(len(queries), dtype=bool)
        for start in range(0, len(queries), _QUERY_CHUNK):
            chunk = slice(start, min(start + _QUERY_CHUNK, len(queries)))
            self._contains_chunk(
                queries[chunk], answers[chunk], stop_on_first=False, deadline=deadline
            )
        return answers

    def any_contains(
        self, queries: np.ndarray, *, deadline: Optional[Deadline] = None
    ) -> bool:
        """Does *any* query row get a yes?  (The batched edge decision.)

        Equivalent to ``self.contains_any_many(queries).any()`` but the
        traversal returns the moment the first yes is decided — the batched
        analogue of the old per-point loop's ``any(...)`` short-circuit.
        """
        queries = self._as_queries(queries)
        for start in range(0, len(queries), _QUERY_CHUNK):
            chunk = slice(start, min(start + _QUERY_CHUNK, len(queries)))
            answers = np.zeros(chunk.stop - chunk.start, dtype=bool)
            if self._contains_chunk(
                queries[chunk], answers, stop_on_first=True, deadline=deadline
            ):
                return True
        return False

    # ----------------------------------------------------------- traversal

    def _as_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DataError(
                f"queries must be a (k, {self.dim}) array; got shape "
                f"{queries.shape}"
            )
        return queries

    def _root_frontier(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Initial ``(query_id, node_id)`` frontier over the level-0 cells.

        Vectorised candidate discovery: per query the coordinate box
        ``[floor((q-eps)/side0), floor((q+eps)/side0)]`` is clipped into
        the root bounding box and either *enumerated* (packed-key
        ``np.searchsorted`` probe over the sorted root keys — the batched
        analogue of the reference's enumeration branch) or, when the box
        volume dwarfs the root count, resolved by a chunked coordinate
        *scan* over all roots.
        """
        nq = len(queries)
        lo = np.floor((queries - self.eps) / self.side0).astype(np.int64)
        hi = np.floor((queries + self.eps) / self.side0).astype(np.int64)
        np.maximum(lo, self._root_lo[None, :], out=lo)
        np.minimum(hi, self._root_hi[None, :], out=hi)
        spans = hi - lo + 1
        valid = (spans > 0).all(axis=1)
        if not valid.any():
            return _EMPTY, _EMPTY
        v_idx = np.nonzero(valid)[0]
        lo_v, hi_v, spans_v = lo[v_idx], hi[v_idx], spans[v_idx]
        max_spans = spans_v.max(axis=0)
        n_off = int(np.prod(max_spans.astype(np.float64)))
        m = len(self._coords[0])
        if (
            self._root_mults is not None
            and 0 < n_off <= _ENUMERATION_BUDGET
            and n_off <= 4 * m
        ):
            offs = np.stack(
                np.meshgrid(*[np.arange(int(s)) for s in max_spans], indexing="ij"),
                axis=-1,
            ).reshape(-1, self.dim)
            q_parts: List[np.ndarray] = []
            n_parts: List[np.ndarray] = []
            rows = max(1, 2_000_000 // max(n_off, 1))
            for s in range(0, len(v_idx), rows):
                part = slice(s, min(s + rows, len(v_idx)))
                cand = lo_v[part][:, None, :] + offs[None, :, :]
                ok = (offs[None, :, :] < spans_v[part][:, None, :]).all(axis=2)
                np.minimum(cand, self._root_hi[None, None, :], out=cand)
                keys = (cand - self._root_lo[None, None, :]) @ self._root_mults
                pos = np.searchsorted(self._root_keys, keys)
                np.minimum(pos, m - 1, out=pos)
                hit = ok & (self._root_keys[pos] == keys)
                qi, oi = np.nonzero(hit)
                q_parts.append(v_idx[part][qi])
                n_parts.append(self._root_order[pos[qi, oi]])
            return (
                np.concatenate(q_parts) if q_parts else _EMPTY,
                np.concatenate(n_parts) if n_parts else _EMPTY,
            )
        # Scan branch: compare every root against every query box, chunked.
        roots = self._coords[0]
        q_parts = []
        n_parts = []
        rows = max(1, 2_000_000 // max(m * self.dim, 1))
        for s in range(0, len(v_idx), rows):
            part = slice(s, min(s + rows, len(v_idx)))
            inside = (
                (roots[None, :, :] >= lo_v[part][:, None, :])
                & (roots[None, :, :] <= hi_v[part][:, None, :])
            ).all(axis=2)
            qi, ri = np.nonzero(inside)
            q_parts.append(v_idx[part][qi])
            n_parts.append(ri.astype(np.int64))
        return (
            np.concatenate(q_parts) if q_parts else _EMPTY,
            np.concatenate(n_parts) if n_parts else _EMPTY,
        )

    def _bounds(
        self, queries: np.ndarray, q_id: np.ndarray, node: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Min / max squared distance from each query to its frontier node's box."""
        side = self.side0 / (2 ** level)
        low = self._coords[level][node] * side
        high = low + side
        qp = queries[q_id]
        near = np.maximum(low - qp, 0.0) + np.maximum(qp - high, 0.0)
        far = np.maximum(np.abs(qp - low), np.abs(qp - high))
        min_sq = np.einsum("ij,ij->i", near, near)
        max_sq = np.einsum("ij,ij->i", far, far)
        return min_sq, max_sq

    def _leaf_pairs(
        self, q_id: np.ndarray, node: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand early-leaf frontier pairs into (query_id, point_idx) pairs."""
        ln = self._leaf_n[level][node]
        p_rows = _concat_ranges(self._leaf_off[level][node], ln)
        return np.repeat(q_id, ln), self._leaf_point_idx[p_rows]

    def _count_chunk(
        self,
        queries: np.ndarray,
        totals: np.ndarray,
        deadline: Optional[Deadline] = None,
    ) -> None:
        counters.add("lemma5_queries", len(queries))
        counters.add("lemma5_batches")
        q_id, node = self._root_frontier(queries)
        for level in range(self.n_levels):
            if len(q_id) == 0:
                break
            if deadline is not None:
                deadline.check()
            counters.add("lemma5_frontier_pairs", len(q_id))
            min_sq, max_sq = self._bounds(queries, q_id, node, level)
            alive = min_sq <= self._sq_eps
            bulk = alive & (max_sq <= self._sq_outer)
            rest = alive & ~bulk
            leaf = rest & (self._leaf_n[level][node] >= 0)
            descend = rest & (self._child_n[level][node] > 0)
            # rest & ~leaf & ~descend: deepest-level cells that intersect
            # B(q, eps) — diameter <= eps*rho, so bulk-add their counts.
            np.bitwise_or(bulk, rest & ~leaf & ~descend, out=bulk)
            counters.add("lemma5_pruned", int((~alive).sum()))
            counters.add("lemma5_bulk_add", int(bulk.sum()))
            if bulk.any():
                np.add.at(totals, q_id[bulk], self._counts[level][node[bulk]])
            if leaf.any():
                counters.add("lemma5_leaf_nodes", int(leaf.sum()))
                q_rep, p_idx = self._leaf_pairs(q_id[leaf], node[leaf], level)
                counters.add("lemma5_leaf_pairs", len(q_rep))
                diff = self.points[p_idx] - queries[q_rep]
                within = np.einsum("ij,ij->i", diff, diff) <= self._sq_eps
                np.add.at(totals, q_rep[within], 1)
            if descend.any():
                cn = self._child_n[level][node[descend]]
                next_node = _concat_ranges(self._child_off[level][node[descend]], cn)
                q_id = np.repeat(q_id[descend], cn)
                node = next_node
            else:
                break

    def _contains_chunk(
        self,
        queries: np.ndarray,
        answers: np.ndarray,
        *,
        stop_on_first: bool,
        deadline: Optional[Deadline] = None,
    ) -> bool:
        """Advance the containment frontier; fills ``answers`` in place.

        Returns True as soon as any query is decided yes when
        ``stop_on_first`` is set (remaining answers are then unreliable).
        """
        counters.add("lemma5_queries", len(queries))
        counters.add("lemma5_batches")
        q_id, node = self._root_frontier(queries)
        for level in range(self.n_levels):
            if len(q_id) == 0:
                break
            if deadline is not None:
                deadline.check()
            counters.add("lemma5_frontier_pairs", len(q_id))
            min_sq, max_sq = self._bounds(queries, q_id, node, level)
            alive = min_sq <= self._sq_eps
            # Non-empty cells fully inside B(q, eps(1+rho)) decide yes, and
            # so do intersecting deepest-level cells (diameter <= eps*rho);
            # every stored node has count >= 1.
            leaf_flag = self._leaf_n[level][node] >= 0
            has_child = self._child_n[level][node] > 0
            yes = alive & ((max_sq <= self._sq_outer) | (~leaf_flag & ~has_child))
            counters.add("lemma5_pruned", int((~alive).sum()))
            counters.add("lemma5_bulk_add", int(yes.sum()))
            if yes.any():
                answers[q_id[yes]] = True
                if stop_on_first:
                    return True
            rest = alive & ~yes
            leaf = rest & leaf_flag
            if leaf.any():
                counters.add("lemma5_leaf_nodes", int(leaf.sum()))
                q_rep, p_idx = self._leaf_pairs(q_id[leaf], node[leaf], level)
                counters.add("lemma5_leaf_pairs", len(q_rep))
                diff = self.points[p_idx] - queries[q_rep]
                within = np.einsum("ij,ij->i", diff, diff) <= self._sq_eps
                if within.any():
                    answers[q_rep[within]] = True
                    if stop_on_first:
                        return True
            descend = rest & has_child
            # Early retirement: decided queries leave the frontier now.
            descend &= ~answers[q_id]
            if descend.any():
                cn = self._child_n[level][node[descend]]
                next_node = _concat_ranges(self._child_off[level][node[descend]], cn)
                q_id = np.repeat(q_id[descend], cn)
                node = next_node
            else:
                break
        return bool(answers.any()) if stop_on_first else False

    # ----------------------------------------------------------- statistics

    def node_count(self) -> int:
        """Total number of cells stored (matches the reference structure)."""
        return sum(len(c) for c in self._coords)

    @property
    def nbytes(self) -> int:
        """Bytes held by the structure's arrays (cache accounting)."""
        total = self.points.nbytes + self._leaf_point_idx.nbytes
        for arrays in (
            self._coords, self._counts, self._child_off, self._child_n,
            self._leaf_off, self._leaf_n,
        ):
            total += sum(a.nbytes for a in arrays)
        if self._root_keys is not None:
            total += self._root_keys.nbytes + self._root_order.nbytes
        return int(total)
