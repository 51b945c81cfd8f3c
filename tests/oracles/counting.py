"""Pointer-based Lemma 5 counting hierarchy: the reference structure.

One Python ``_Node`` per cell, one query point at a time — the readable
rendition of the paper's Section 4.3 pseudo-code.  Production code uses
:class:`repro.grid.hierarchy.FlatHierarchy`, the same tree (identical node
set, identical per-node prune / bulk-add / leaf decisions) flattened into
level-ordered arrays with batched queries; this class is kept only as the
differential oracle the flat kernel and the Lemma 5 bench are checked
against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DataError
from repro.geometry import distance as dm
from repro.grid.hierarchy import _ENUMERATION_BUDGET, _EXACT_LEAF_SIZE
from repro.utils.validation import check_eps, check_rho


def _group_by_rows(coords: np.ndarray) -> Dict[Tuple[int, ...], np.ndarray]:
    """Group row indices of an integer matrix by identical rows.

    One stable ``np.lexsort`` is the whole bucketing pass: stability makes
    the indices inside each group come out already ascending, and the
    group bodies are zero-copy views into the single sorted index array.
    """
    if len(coords) == 0:
        return {}
    order = np.lexsort(coords.T[::-1])
    sorted_coords = coords[order]
    change = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    bounds = np.append(starts, len(coords))
    keys = sorted_coords[starts].tolist()
    groups: Dict[Tuple[int, ...], np.ndarray] = {}
    for i, key in enumerate(keys):
        groups[tuple(key)] = order[bounds[i]:bounds[i + 1]]
    return groups


class _Node:
    """One cell of the hierarchy."""

    __slots__ = ("count", "children", "point_idx")

    def __init__(self, count: int) -> None:
        self.count = count
        self.children: Optional[List[Tuple[np.ndarray, "_Node"]]] = None
        self.point_idx: Optional[np.ndarray] = None  # set on early leaves


class CountingHierarchy:
    """Approximate range counting structure of Lemma 5 (reference).

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` — the set the queries count over.
    eps, rho:
        The fixed query radius and approximation constant.
    exact_leaf_size:
        Subtrees with at most this many points become exact leaves
        (0 reproduces the paper's structure verbatim).
    """

    def __init__(
        self,
        points: np.ndarray,
        eps: float,
        rho: float,
        exact_leaf_size: int = _EXACT_LEAF_SIZE,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise DataError("CountingHierarchy requires a non-empty (n, d) array")
        self.points = points
        self.eps = check_eps(eps)
        self.rho = check_rho(rho)
        self.dim = points.shape[1]
        self.side0 = self.eps / np.sqrt(self.dim)
        # Number of levels: h = max(1, 1 + ceil(log2(1/rho))).
        if self.rho >= 1.0:
            self.n_levels = 1
        else:
            self.n_levels = 1 + int(np.ceil(np.log2(1.0 / self.rho)))
        self._exact_leaf_size = max(0, int(exact_leaf_size))
        self._sq_eps = dm.sq_radius(self.eps)
        self._sq_outer = (self.eps * (1.0 + self.rho)) ** 2

        coords0 = np.floor(points / self.side0).astype(np.int64)
        self._roots: Dict[Tuple[int, ...], _Node] = {}
        for key, idx in _group_by_rows(coords0).items():
            node = self._build(np.asarray(key, dtype=np.int64), idx, level=0)
            self._roots[key] = node

    # -------------------------------------------------------------- build

    def _build(self, coord: np.ndarray, idx: np.ndarray, level: int) -> _Node:
        node = _Node(len(idx))
        deepest = level >= self.n_levels - 1
        if deepest or len(idx) <= self._exact_leaf_size:
            if len(idx) <= self._exact_leaf_size:
                # Early leaf (or tiny deepest cell): keep indices for exact
                # resolution, which is both tighter and cheap.
                node.point_idx = idx
            return node
        child_side = self.side0 / (2 ** (level + 1))
        child_coords = np.floor(self.points[idx] / child_side).astype(np.int64)
        node.children = []
        for key, sub in _group_by_rows(child_coords).items():
            child = self._build(np.asarray(key, dtype=np.int64), idx[sub], level + 1)
            node.children.append((np.asarray(key, dtype=np.int64), child))
        return node

    # ------------------------------------------------------------- queries

    def count(self, q: np.ndarray) -> int:
        """Approximate count of points within ``eps`` of ``q``.

        The result is guaranteed to be in
        ``[|B(q, eps) ∩ P|, |B(q, eps(1+rho)) ∩ P|]``.
        """
        q = np.asarray(q, dtype=np.float64)
        total = 0
        for coord, node in self._iter_candidate_roots(q):
            total += self._count_rec(q, coord, node, level=0)
        return total

    def contains_any(self, q: np.ndarray) -> bool:
        """Approximate emptiness test: True means some point lies within
        ``eps(1+rho)``; False means no point lies within ``eps``.

        This is the exact contract the rho-approximate DBSCAN edge rule
        needs (Section 4.4: yes / no / don't-care).
        """
        q = np.asarray(q, dtype=np.float64)
        for coord, node in self._iter_candidate_roots(q):
            if self._any_rec(q, coord, node, level=0):
                return True
        return False

    # ------------------------------------------------------------ internals

    def _iter_candidate_roots(self, q: np.ndarray):
        """Level-0 cells that could intersect ``B(q, eps)``."""
        lo = np.floor((q - self.eps) / self.side0).astype(np.int64)
        hi = np.floor((q + self.eps) / self.side0).astype(np.int64)
        spans = hi - lo + 1
        budget = int(np.prod(spans.astype(np.float64)))
        if 0 < budget <= _ENUMERATION_BUDGET and budget <= max(len(self._roots), 1) * 4:
            # Vectorised box enumeration: one meshgrid builds every candidate
            # coordinate at once (row-major, i.e. the last axis fastest — the
            # order the old per-candidate digit loop produced).
            axes = [np.arange(int(l), int(h) + 1) for l, h in zip(lo, hi)]
            cand = np.stack(
                np.meshgrid(*axes, indexing="ij"), axis=-1
            ).reshape(-1, self.dim)
            roots = self._roots
            for row in cand.tolist():
                node = roots.get(tuple(row))
                if node is not None:
                    yield np.asarray(row, dtype=np.int64), node
        else:
            for key, node in self._roots.items():
                coord = np.asarray(key, dtype=np.int64)
                if np.all(coord >= lo) and np.all(coord <= hi):
                    yield coord, node

    def _box_bounds(self, coord: np.ndarray, level: int, q: np.ndarray) -> Tuple[float, float]:
        side = self.side0 / (2 ** level)
        low = coord * side
        high = low + side
        near = np.maximum(low - q, 0.0) + np.maximum(q - high, 0.0)
        far = np.maximum(np.abs(q - low), np.abs(q - high))
        return float(np.dot(near, near)), float(np.dot(far, far))

    def _count_rec(self, q: np.ndarray, coord: np.ndarray, node: _Node, level: int) -> int:
        min_sq, max_sq = self._box_bounds(coord, level, q)
        if min_sq > self._sq_eps:
            return 0  # disjoint with B(q, eps)
        if max_sq <= self._sq_outer:
            return node.count  # fully inside B(q, eps(1+rho))
        if node.point_idx is not None:
            sq = dm.sq_dists_to_point(self.points[node.point_idx], q)
            return int((sq <= self._sq_eps).sum())
        if node.children is None:
            # Deepest-level cell: it intersects B(q, eps) and has diameter
            # <= eps * rho, so all its points are within eps(1+rho).
            return node.count
        return sum(
            self._count_rec(q, child_coord, child, level + 1)
            for child_coord, child in node.children
        )

    def _any_rec(self, q: np.ndarray, coord: np.ndarray, node: _Node, level: int) -> bool:
        min_sq, max_sq = self._box_bounds(coord, level, q)
        if min_sq > self._sq_eps:
            return False
        if max_sq <= self._sq_outer:
            return node.count > 0
        if node.point_idx is not None:
            sq = dm.sq_dists_to_point(self.points[node.point_idx], q)
            return bool((sq <= self._sq_eps).any())
        if node.children is None:
            return node.count > 0
        return any(
            self._any_rec(q, child_coord, child, level + 1)
            for child_coord, child in node.children
        )

    # ----------------------------------------------------------- statistics

    def node_count(self) -> int:
        """Total number of cells stored (for space accounting in benches)."""
        total = 0
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            total += 1
            if node.children:
                stack.extend(child for _c, child in node.children)
        return total
