"""Disjoint-set (union-find) structures.

Used to compute the connected components of the core-cell graph ``G``
(Lemma 1 of the paper): each core cell is an element, each graph edge a
``union``, and the final components are the clusters' core-point groups.

Two implementations share the same semantics:

* :class:`UnionFind` — dense integer elements backed by Python lists, the
  original general-purpose structure;
* :class:`DenseUnionFind` — numpy parent/rank arrays over dense ids with
  *batched* operations (``union_many``, ``roots``) for the staged edge
  kernel (:mod:`repro.core.edgekernel`), where whole stages of candidate pairs are settled with a handful of
  array passes.

Both implement union by rank with full path compression, giving the usual
near-constant amortised cost per operation.  Component labels are always
assigned by first appearance in element/insertion order, which is what
makes every consumer's output deterministic.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class UnionFind:
    """Union-find over dense integer elements ``0..n-1``."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative; got {n}")
        self._parent = list(range(n))
        self._rank = [0] * n
        self._count = n

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_components(self) -> int:
        """Number of disjoint sets currently held."""
        return self._count

    def add(self) -> int:
        """Append a fresh singleton element; return its id."""
        idx = len(self._parent)
        self._parent.append(idx)
        self._rank.append(0)
        self._count += 1
        return idx

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set (with path compression)."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; return True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        self._count -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """True iff ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def components(self) -> List[List[int]]:
        """Return all sets as lists of elements, ordered by smallest member."""
        groups: Dict[int, List[int]] = {}
        for x in range(len(self._parent)):
            groups.setdefault(self.find(x), []).append(x)
        return sorted(groups.values(), key=lambda members: members[0])


class DenseUnionFind:
    """Array-backed union-find over dense ids ``0..n-1`` with batched ops.

    The hot structure of the staged edge kernel: ``parent`` / ``rank`` are
    numpy int64 arrays, whole edge batches merge through
    :meth:`union_many`, and :meth:`roots` resolves every element's
    representative in a few vectorised pointer-jumping passes — the
    operation behind the kernel's "drop pairs an earlier stage already
    connected" filters.  Component labels are assigned by first
    appearance in id order.
    """

    __slots__ = ("_parent", "_rank", "_count")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative; got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._rank = np.zeros(n, dtype=np.int64)
        self._count = int(n)

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_components(self) -> int:
        """Number of disjoint sets currently held."""
        return self._count

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with full path compression)."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; return True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        self._count -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """True iff ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def union_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Merge every pair ``(xs[t], ys[t])`` in order.

        Returns a boolean mask marking the pairs whose union actually
        merged two distinct sets — the spanning subset of the batch.
        """
        if len(xs) != len(ys):
            raise ValueError(f"batch lengths differ: {len(xs)} vs {len(ys)}")
        merged = np.zeros(len(xs), dtype=bool)
        xs_list = np.asarray(xs, dtype=np.int64).tolist()
        ys_list = np.asarray(ys, dtype=np.int64).tolist()
        for t, (x, y) in enumerate(zip(xs_list, ys_list)):
            merged[t] = self.union(x, y)
        return merged

    def roots(self) -> np.ndarray:
        """Every element's representative, as one array (fully compressed).

        Vectorised pointer jumping: each pass squares the pointer depth,
        so the loop runs ``O(log depth)`` times regardless of ``n``.  The
        result is written back into ``parent``, so subsequent scalar finds
        run on a fully compressed forest.
        """
        p = self._parent
        while True:
            pp = p[p]
            if np.array_equal(pp, p):
                break
            p = pp
        self._parent = p
        return p

    def component_labels(self) -> np.ndarray:
        """Dense component label per element, ``0..k-1``.

        Labels are assigned by first appearance in element order.
        """
        roots = self.roots()
        if len(roots) == 0:
            return np.empty(0, dtype=np.int64)
        uniq, first = np.unique(roots, return_index=True)
        order = np.argsort(first, kind="stable")
        label_of_root = np.empty(len(self._parent), dtype=np.int64)
        label_of_root[uniq[order]] = np.arange(len(uniq), dtype=np.int64)
        return label_of_root[roots]
