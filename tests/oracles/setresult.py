"""Set-based reference model of a DBSCAN result.

This is the original representation of :class:`repro.core.result.Clustering`:
every cluster is a frozenset of point indices, clusters are ordered by their
smallest member, and labels / memberships are derived by per-point loops.
It is slow on large inputs and is kept only as the differential oracle for
the array-native production model.

One deliberate difference from the historical behaviour: clusters sharing
their smallest member are ordered by (smallest member, smallest core member,
sorted members) instead of by input order, so that equal results get equal
labels.  Identical clusters are collapsed, because the result denotes a
*set* of clusters.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import AlgorithmError

NOISE = -1


class SetClustering:
    """The reference result: canonical tuple of frozensets plus a core mask."""

    def __init__(
        self,
        n: int,
        clusters: Sequence[Iterable[int]],
        core_mask: np.ndarray,
        meta: Mapping[str, object] | None = None,
    ) -> None:
        self.n = int(n)
        sets = [frozenset(int(i) for i in c) for c in clusters]
        if any(not members for members in sets):
            raise AlgorithmError("clusters must be non-empty")
        for members in sets:
            if min(members) < 0 or max(members) >= self.n:
                raise AlgorithmError("cluster member index out of range")
        self.core_mask = np.asarray(core_mask, dtype=bool)
        if self.core_mask.shape != (self.n,):
            raise AlgorithmError("core_mask must have shape (n,)")

        def key(members):
            cores = [i for i in members if self.core_mask[i]]
            return (min(members), min(cores) if cores else self.n, sorted(members))

        self.clusters: Tuple[frozenset, ...] = tuple(sorted(set(sets), key=key))
        self.meta: Dict[str, object] = dict(meta or {})

        labels = np.full(self.n, NOISE, dtype=np.int64)
        memberships: Dict[int, List[int]] = {}
        for cid in range(len(self.clusters) - 1, -1, -1):
            for idx in self.clusters[cid]:
                labels[idx] = cid
                memberships.setdefault(idx, []).insert(0, cid)
        self.labels = labels
        self._memberships = {idx: tuple(cids) for idx, cids in memberships.items()}

        seen: Dict[int, int] = {}
        for cid, members in enumerate(self.clusters):
            for idx in members:
                if self.core_mask[idx]:
                    if idx in seen:
                        raise AlgorithmError(
                            f"core point {idx} appears in clusters {seen[idx]} and {cid}"
                        )
                    seen[idx] = cid

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def memberships_of(self, idx: int) -> Tuple[int, ...]:
        return self._memberships.get(int(idx), ())

    def cluster_sizes(self) -> List[int]:
        return [len(c) for c in self.clusters]

    def core_points_of(self, cid: int) -> frozenset:
        return frozenset(i for i in self.clusters[cid] if self.core_mask[i])

    def same_clusters(self, other) -> bool:
        return self.n == other.n and set(self.clusters) == set(other.clusters)

    def __eq__(self, other) -> bool:
        return self.same_clusters(other) and np.array_equal(self.core_mask, other.core_mask)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.clusters)))


def build_set_clustering(
    n: int,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    border_memberships: Mapping[int, Iterable[int]],
) -> SetClustering:
    """Reference assembly from per-point pieces, one Python set per cluster."""
    core_mask = np.asarray(core_mask, dtype=bool)
    core_idx = np.nonzero(core_mask)[0]
    clusters: List[set] = []
    if len(core_idx):
        clusters = [set() for _ in range(int(np.max(core_labels[core_idx])) + 1)]
        for i in core_idx:
            clusters[int(core_labels[i])].add(int(i))
    for idx, cids in border_memberships.items():
        for cid in cids:
            clusters[int(cid)].add(int(idx))
    return SetClustering(n, clusters, core_mask)
