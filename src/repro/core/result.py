"""The clustering result model.

DBSCAN's output (Problem 1) is a *unique set of clusters*, where

* every core point belongs to exactly one cluster;
* a border point (non-core point in a cluster) may belong to **several**
  clusters (Lemma 2 of the original KDD'96 paper — point ``o10`` of the
  paper's Figure 2 is the canonical example);
* noise points belong to no cluster.

:class:`Clustering` stores that set as arrays: a primary ``labels`` array,
the ``core_mask``, and a CSR overflow table holding the extra memberships
of multi-membership border points.  Cluster ids are canonical — clusters
are ordered by (smallest member, smallest core member, sorted members) —
so two results compare equal exactly when they denote the same set of
clusters over the same core points.  The frozenset view ``clusters`` is
derived from the arrays on first use.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.corekernel import BorderAssignments
from repro.errors import AlgorithmError

NOISE = -1
_EMPTY = np.zeros(0, dtype=np.int64)


def _distinct_rows(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of sorted rows that differ from their predecessor in any key."""
    first = np.ones(len(keys[0]), dtype=bool)
    if len(first) > 1:
        first[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    return first


def _member_rank(points: np.ndarray, cids: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """Dense rank of the ``tied`` clusters by sorted member list (0 elsewhere).

    Only clusters tying on (smallest member, smallest core member) get here:
    hand-built core-less clusters and duplicates.  Equal lists rank equal.
    """
    sel = tied[cids]
    pairs = np.unique(np.stack((cids[sel], points[sel]), axis=1), axis=0)
    ids, row, sizes = np.unique(pairs[:, 0], return_inverse=True, return_counts=True)
    # Pad with -1 so a proper prefix sorts first, as for Python sequences.
    rows = np.full((len(ids), int(sizes.max())), -1, dtype=np.int64)
    rows[row, np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = pairs[:, 1]
    order = np.lexsort(rows.T[::-1])
    rank = np.zeros(len(tied), dtype=np.int64)
    rank[ids[order]] = np.cumsum(_distinct_rows(list(rows[order].T))) - 1
    return rank


def _canonicalise(
    n: int, points: np.ndarray, cids: np.ndarray, k: int, core_mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """(point, cluster) pairs + core mask -> the canonical array form.

    ``points[j]`` belongs to input cluster ``cids[j]`` in ``0..k-1``
    (repeated pairs are harmless; identical clusters collapse).  Returns
    ``labels``, the overflow CSR (points, indptr, clusters) and the number
    of clusters.
    """
    if len(cids) and (cids.min() < 0 or cids.max() >= k):
        raise AlgorithmError("cluster id out of range")
    if k and np.bincount(cids, minlength=k).min() == 0:
        raise AlgorithmError("clusters must be non-empty")
    if len(points) and (points.min() < 0 or points.max() >= n):
        raise AlgorithmError("cluster member index out of range")
    if core_mask.shape != (n,):
        raise AlgorithmError("core_mask must have shape (n,)")

    keys = [np.full(k, n, dtype=np.int64), np.full(k, n, dtype=np.int64)]
    np.minimum.at(keys[0], cids, points)
    is_core = core_mask[points]
    np.minimum.at(keys[1], cids[is_core], points[is_core])
    order = np.lexsort(keys[::-1])
    tie = np.flatnonzero(~_distinct_rows([key[order] for key in keys]))
    if len(tie):
        tied = np.zeros(k, dtype=bool)
        tied[order[tie]] = tied[order[tie - 1]] = True
        keys.append(_member_rank(points, cids, tied))
        order = np.lexsort(keys[::-1])
    new_id = np.empty(k, dtype=np.int64)
    new_id[order] = np.cumsum(_distinct_rows([key[order] for key in keys])) - 1
    n_clusters = int(new_id.max()) + 1 if k else 0

    cids = new_id[cids]
    labels = np.full(n, n_clusters, dtype=np.int64)
    np.minimum.at(labels, points, cids)
    labels[labels == n_clusters] = NOISE
    extra = cids != labels[points]
    shared = core_mask[points[extra]]
    if shared.any():
        idx, cid = int(points[extra][shared][0]), int(cids[extra][shared][0])
        raise AlgorithmError(
            f"core point {idx} appears in clusters {int(labels[idx])} and {cid}; "
            "core points must belong to exactly one cluster"
        )
    overflow = np.unique(np.stack((points[extra], cids[extra]), axis=1), axis=0)
    rows, counts = np.unique(overflow[:, 0], return_counts=True)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return labels, rows, indptr, overflow[:, 1].copy(), n_clusters


class Clustering:
    """An immutable DBSCAN (or rho-approximate DBSCAN) result.

    Attributes
    ----------
    n:
        Number of input points.
    labels:
        Primary label per point: a core point gets its unique cluster id,
        a border point the smallest id among its memberships, noise ``-1``.
    core_mask:
        Boolean array marking core points.
    overflow_points, overflow_indptr, overflow_clusters:
        CSR table of the border points in more than one cluster: point
        ``overflow_points[i]`` also joins the clusters
        ``overflow_clusters[overflow_indptr[i]:overflow_indptr[i + 1]]``.
    n_clusters:
        Number of clusters.
    clusters:
        Tuple of frozensets of point indices in canonical id order — the
        paper's set ``C``, built from the arrays on first access.
    meta:
        Free-form provenance (algorithm name, eps, min_pts, rho, ...).
    """

    __slots__ = (
        "n", "labels", "core_mask", "overflow_points", "overflow_indptr",
        "overflow_clusters", "n_clusters", "meta", "_clusters",
    )

    def __init__(
        self,
        n: int,
        clusters: Sequence[Iterable[int]],
        core_mask: np.ndarray,
        meta: Mapping[str, object] | None = None,
    ) -> None:
        chunks = [np.fromiter(c, dtype=np.int64) for c in clusters]
        points = np.concatenate(chunks) if chunks else _EMPTY
        cids = np.repeat(np.arange(len(chunks)), [len(c) for c in chunks])
        self._adopt(n, points, cids, len(chunks), core_mask, meta)

    @classmethod
    def _from_pairs(cls, n, points, cids, k, core_mask, meta=None) -> "Clustering":
        """Build from (point, cluster id) pairs over ``k`` input clusters."""
        self = cls.__new__(cls)
        self._adopt(n, points, cids, k, core_mask, meta)
        return self

    def _adopt(self, n, points, cids, k, core_mask, meta) -> None:
        self.n = int(n)
        self.core_mask = np.asarray(core_mask, dtype=bool)
        (self.labels, self.overflow_points, self.overflow_indptr, self.overflow_clusters,
         self.n_clusters) = _canonicalise(
            self.n, np.asarray(points, dtype=np.int64), np.asarray(cids, dtype=np.int64),
            int(k), self.core_mask,
        )
        self.meta: Dict[str, object] = dict(meta or {})
        self._clusters = None

    # ------------------------------------------------------------ inspection

    def _membership_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every (point, cluster id) membership as two parallel arrays."""
        clustered = np.flatnonzero(self.labels != NOISE)
        extra = np.repeat(self.overflow_points, np.diff(self.overflow_indptr))
        return (
            np.concatenate((clustered, extra)),
            np.concatenate((self.labels[clustered], self.overflow_clusters)),
        )

    @property
    def clusters(self) -> Tuple[frozenset, ...]:
        if self._clusters is None:
            points, cids = self._membership_pairs()
            order = np.lexsort((points, cids))
            bounds = np.cumsum(np.bincount(cids, minlength=self.n_clusters))
            self._clusters = tuple(
                frozenset(chunk.tolist()) for chunk in np.split(points[order], bounds)[:-1]
            )
        return self._clusters

    @property
    def noise_mask(self) -> np.ndarray:
        """Boolean mask of points belonging to no cluster."""
        return self.labels == NOISE

    @property
    def border_mask(self) -> np.ndarray:
        """Boolean mask of non-core points that belong to some cluster."""
        return (~self.core_mask) & (self.labels != NOISE)

    def memberships_of(self, idx: int) -> Tuple[int, ...]:
        """All cluster ids containing point ``idx`` (empty tuple for noise)."""
        idx = range(self.n)[idx]
        label = int(self.labels[idx])
        if label == NOISE:
            return ()
        row = int(np.searchsorted(self.overflow_points, idx))
        if row < len(self.overflow_points) and self.overflow_points[row] == idx:
            lo, hi = self.overflow_indptr[row], self.overflow_indptr[row + 1]
            return (label, *self.overflow_clusters[lo:hi].tolist())
        return (label,)

    def cluster_sizes(self) -> List[int]:
        return np.bincount(self._membership_pairs()[1], minlength=self.n_clusters).tolist()

    def core_points_of(self, cid: int) -> frozenset:
        """The core points of cluster ``cid`` (the sets ``P(V_i)`` of Lemma 1)."""
        cid = range(self.n_clusters)[cid]
        return frozenset(np.flatnonzero(self.core_mask & (self.labels == cid)).tolist())

    # ------------------------------------------------------------ comparison

    def _same_arrays(self, other: "Clustering") -> bool:
        fields = ("labels", "overflow_points", "overflow_indptr", "overflow_clusters")
        return (self.n, self.n_clusters) == (other.n, other.n_clusters) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in fields
        )

    def same_clusters(self, other: "Clustering") -> bool:
        """True iff both results denote exactly the same set of clusters.

        This is the comparison used throughout Section 5.2 ("returned
        exactly the same clusters as DBSCAN").
        """
        if np.array_equal(self.core_mask, other.core_mask):
            return self._same_arrays(other)
        # Canonical ids depend on the core points, so results over
        # different core masks are compared as sets.
        return self.n == other.n and set(self.clusters) == set(other.clusters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return np.array_equal(self.core_mask, other.core_mask) and self._same_arrays(other)

    def __hash__(self) -> int:  # results are value objects
        return hash((self.n, self.n_clusters, self.labels.tobytes()))

    def __repr__(self) -> str:
        algo = self.meta.get("algorithm", "?")
        return (
            f"Clustering(n={self.n}, clusters={self.n_clusters}, "
            f"noise={int(self.noise_mask.sum())}, cores={int(self.core_mask.sum())}, "
            f"algorithm={algo!r})"
        )

    def summary(self) -> str:
        """Human-readable one-paragraph description."""
        sizes = self.cluster_sizes()
        parts = [
            f"{self.n_clusters} cluster(s) over {self.n} points",
            f"{int(self.core_mask.sum())} core",
            f"{int(self.border_mask.sum())} border",
            f"{int(self.noise_mask.sum())} noise",
        ]
        if sizes:
            parts.append(f"sizes={sizes}")
        return "; ".join(parts)


def build_clustering(
    n: int,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    border_memberships: Mapping[int, Iterable[int]],
    meta: Mapping[str, object] | None = None,
) -> Clustering:
    """Assemble a :class:`Clustering` from the pieces every algorithm produces.

    ``core_labels`` assigns every core point a dense component id in
    ``0..k-1`` (values at non-core positions are ignored);
    ``border_memberships`` maps border point index -> iterable of component
    ids the point joins (a staged kernel's ``BorderAssignments`` is read
    through its CSR arrays).
    """
    core_mask = np.asarray(core_mask, dtype=bool)
    core_idx = np.flatnonzero(core_mask)
    core_cids = np.asarray(core_labels, dtype=np.int64)[core_idx]
    if isinstance(border_memberships, BorderAssignments):
        rows = border_memberships
        border_pts = np.repeat(rows.points, np.diff(rows.indptr))
        border_cids = rows.labels
    else:
        values = [tuple(cids) for cids in border_memberships.values()]
        keys = np.fromiter(border_memberships.keys(), dtype=np.int64, count=len(values))
        border_pts = np.repeat(keys, [len(v) for v in values])
        border_cids = np.fromiter(chain.from_iterable(values), dtype=np.int64)
    return Clustering._from_pairs(
        n,
        np.concatenate((core_idx, border_pts)),
        np.concatenate((core_cids, border_cids)),
        int(core_cids.max()) + 1 if len(core_cids) else 0,
        core_mask,
        meta,
    )


def empty_clustering(meta: Mapping[str, object] | None = None) -> Clustering:
    """The clustering of the empty point set: no clusters, no points.

    The degenerate-but-legal result public entry points return for
    ``n == 0`` inputs (a service must survive an empty batch).
    """
    return Clustering(0, [], np.zeros(0, dtype=bool), meta=meta)
