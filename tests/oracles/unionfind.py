"""Keyed union-find: the dict-based forest the per-pair edge loop uses.

Production code runs every forest on dense ids
(:class:`repro.utils.unionfind.DenseUnionFind`).  This keyed variant over
arbitrary hashable keys (grid-cell coordinates) is kept only as the
reference the dense forest and the loop oracles of
:mod:`tests.oracles.loops` are checked against.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

from repro.utils.unionfind import UnionFind


class KeyedUnionFind:
    """Union-find over arbitrary hashable keys (e.g. grid-cell coordinates)."""

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._uf = UnionFind(0)
        for key in keys:
            self.add(key)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids

    @property
    def n_components(self) -> int:
        return self._uf.n_components

    def add(self, key: Hashable) -> int:
        """Register ``key`` (idempotent) and return its dense id."""
        idx = self._ids.get(key)
        if idx is None:
            idx = self._ids[key] = self._uf.add()
        return idx

    def find(self, key: Hashable) -> int:
        """Root id of the set containing ``key`` (must be registered)."""
        return self._uf.find(self._ids[key])

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of keys ``a`` and ``b`` (registering them if new)."""
        return self._uf.union(self.add(a), self.add(b))

    def connected(self, a: Hashable, b: Hashable) -> bool:
        if a not in self._ids or b not in self._ids:
            return False
        return self._uf.connected(self._ids[a], self._ids[b])

    def component_labels(self) -> Dict[Hashable, int]:
        """Map every key to a dense component label in ``0..k-1``.

        Labels are assigned in order of first appearance of each component's
        earliest-added key, making the output deterministic.
        """
        labels: Dict[Hashable, int] = {}
        root_label: Dict[int, int] = {}
        for key, idx in self._ids.items():
            root = self._uf.find(idx)
            if root not in root_label:
                root_label[root] = len(root_label)
            labels[key] = root_label[root]
        return labels
