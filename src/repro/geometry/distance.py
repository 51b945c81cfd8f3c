"""Euclidean distance kernels.

Every distance computation in the library goes through this module.  All
comparisons against the DBSCAN radius use *squared* distances to avoid
square roots; public helpers expose both squared and true distances.
Every batched block — core counting, borders, brute force, BCP — is
evaluated by :func:`block_sq_dists`, which shifts each row onto its own
first query point so that coordinates far from the origin cost no
precision; the pairwise kernels are chunked on top of it.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro import config


def _chunk_budget() -> int:
    """The effective chunk budget (environment override included)."""
    return config.chunk_budget()


#: Relative slack applied to every "within eps" decision boundary.  The
#: block kernels' expanded form and the tree kernels' difference form
#: round differently on pairs lying *exactly* on the boundary (points
#: ``0.3`` apart against ``eps = 0.3`` give ``0.09`` in one and
#: ``0.09000000000000002`` in the other), so comparing both against the
#: bare ``eps**2`` lets two exact algorithms disagree.  A shared, slightly
#: inflated boundary — ~10^4 ULPs, far above either kernel's rounding
#: error and far below any meaningful distance difference — keeps every
#: decision identical.
_BOUNDARY_SLACK = 1e-12


def sq_radius(radius: float) -> float:
    """Squared decision boundary for "within ``radius``" tests.

    Every kernel in the library compares squared distances against this
    value (never against the bare ``radius**2``) so that boundary pairs get
    the same verdict no matter which kernel evaluated them.
    """
    return radius * radius * (1.0 + _BOUNDARY_SLACK)


def sq_dist(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Euclidean distance between two points."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return float(np.dot(diff, diff))


def dist(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two points."""
    return float(np.sqrt(sq_dist(p, q)))


def sq_dists_to_point(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``points`` to the point ``q``."""
    diff = np.asarray(points, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


#: Values (``b`` block plus output) one row block of :func:`block_sq_dists`
#: holds: 1 MiB, so the gather, shift and reduction stay in a core's cache.
_BLOCK_FLOATS = 1 << 17


def block_sq_dists(points: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    """Squared distances between two gathered point blocks, row by row.

    Entry ``[r, i, j]`` of the ``(rows, m, w)`` result is the squared
    distance between ``points[a_idx[r, i]]`` and ``points[b_idx[r, j]]``.
    The expanded form ``|a|^2 + |b|^2 - 2 a.b`` is not translation
    invariant: its rounding error scales with the squared norms, which far
    from the origin swamp ``eps^2``.  So each row is first shifted onto its
    own first ``a`` point, which bounds every magnitude by the row's extent
    (``O(eps)`` for a grid tile); with ``m == 1`` the shifted ``a`` is zero
    and the result is the difference form ``|b - a|^2`` (the expanded form
    may round a few ulps below zero).  Rows are gathered, shifted and
    reduced in blocks of about ``_BLOCK_FLOATS`` values, so the shift
    costs no extra pass over memory.
    """
    rows, m = a_idx.shape
    w = b_idx.shape[1]
    d = points.shape[1]
    ones = np.ones(d)
    out = np.empty((rows, m, w))
    step = max(1, _BLOCK_FLOATS // max(1, w * (d + m)))
    for lo in range(0, rows, step):
        a = points[a_idx[lo:lo + step]]
        b = points[b_idx[lo:lo + step]]
        block = out[lo:lo + step]
        anchor = a[:, 0].copy()
        _shift(b, anchor)
        if m == 1:
            b *= b
            np.matmul(b.reshape(-1, d), ones, out=block.reshape(-1))
            continue
        _shift(a, anchor)
        a_sq = np.matmul(a * a, ones)
        a *= -2.0  # exact, so folding the -2 into a rounds nothing
        np.matmul(a, b.transpose(0, 2, 1), out=block)
        block += a_sq[:, :, None]
        b *= b
        block += np.matmul(b.reshape(-1, d), ones).reshape(-1, 1, w)
    return out


def _shift(block: np.ndarray, anchor: np.ndarray) -> None:
    """Subtract ``anchor[r]`` from every point of ``block[r]``, in place.

    Tiling the anchor makes this one contiguous subtraction, several times
    faster than a broadcast over the length-``d`` axis.
    """
    rows, k, d = block.shape
    flat = block.reshape(rows, k * d)
    flat -= np.tile(anchor, (1, k))


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full ``(len(a), len(b))`` matrix of squared distances.

    One :func:`block_sq_dists` row per point of ``a`` against all of
    ``b``, so every entry is the difference form ``|b_j - a_i|^2``, exact
    to rounding at any coordinate magnitude.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cols = np.arange(len(a), len(a) + len(b))
    return block_sq_dists(
        np.concatenate([a, b]),
        np.arange(len(a))[:, None],
        np.broadcast_to(cols, (len(a), len(b))),
    )[:, 0, :]


def iter_chunked_sq_dists(
    a: np.ndarray, b: np.ndarray
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Yield ``(row_slice, block)`` pairs covering the pairwise matrix of a x b.

    Each ``block`` is the squared-distance sub-matrix for the rows of ``a``
    selected by ``row_slice`` against all of ``b``.  Memory stays bounded by
    the chunk budget (:func:`repro.config.chunk_budget`) regardless of
    input sizes.
    """
    rows = max(1, _chunk_budget() // max(1, len(b)))
    for start in range(0, len(a), rows):
        stop = min(start + rows, len(a))
        yield slice(start, stop), pairwise_sq_dists(a[start:stop], b)


def any_within(a: np.ndarray, b: np.ndarray, radius: float) -> bool:
    """True iff some pair ``(a_i, b_j)`` lies within ``radius``."""
    limit = sq_radius(radius)
    for _rows, block in iter_chunked_sq_dists(a, b):
        if (block <= limit).any():
            return True
    return False
