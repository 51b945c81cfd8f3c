"""Correctness checks for every clustering the benchmark produces.

The reference is the brute-force sample of ``datasets.brute_force_sample``,
which shares no arithmetic with the library.  For a result at
``(eps, min_pts)`` and each sampled point ``p`` not involved in a tie:

* ``p`` is core exactly when ``|B(p, eps)| >= min_pts``;
* a non-core ``p`` is noise exactly when no core point lies within eps;
* a core ``p`` shares its cluster with every core point within eps among
  its nearest neighbours.  That is Theorem 3's lower side, so the check
  holds for rho-approximate results too.

:func:`digest` fingerprints a result so every operation can be compared
with the run's first one (and a service response with the library's).
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

NOISE = -1


def digest(result) -> str:
    """Hash of the labels, the core mask and the cluster sizes.

    With the labels fixed, the sizes pin down how many border points hold
    more than one membership, so equal digests mean equal clusterings for
    any practical purpose, at a fraction of a full set comparison's cost.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.labels, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.core_mask, dtype=bool).tobytes())
    h.update(np.asarray(result.cluster_sizes(), dtype=np.int64).tobytes())
    return h.hexdigest()


class Oracle:
    """The brute-force sample of one workload's dataset."""

    def __init__(self, path: str) -> None:
        with np.load(path) as table:
            self.sample = table["sample"]
            self.eps = table["eps"]
            self.counts = table["counts"]
            self.ties = table["ties"]
            self.nn_idx = table["nn_idx"]
            self.nn_d2 = table["nn_d2"]

    def check(self, result, eps: float, min_pts: int) -> List[str]:
        """Problems found in ``result`` (empty when it passes)."""
        hit = np.nonzero(self.eps == float(eps))[0]
        if len(hit) != 1:
            return [f"oracle has no sample for eps={eps}"]
        e = int(hit[0])
        problems: List[str] = []
        sample = self.sample
        judged = ~self.ties[:, e]
        counts = self.counts[:, e]
        core = np.asarray(result.core_mask, dtype=bool)
        labels = np.asarray(result.labels)
        if core.shape != (len(labels),) or len(labels) <= int(sample.max()):
            return [f"result covers {len(labels)} points; the dataset has more"]

        expected_core = counts >= min_pts
        wrong = judged & (core[sample] != expected_core)
        if wrong.any():
            problems.append(
                f"eps={eps} min_pts={min_pts}: core flag wrong for "
                f"{int(wrong.sum())} sampled point(s), e.g. {int(sample[wrong][0])}"
            )

        within = self.nn_d2 <= eps * eps
        core_near = within & core[self.nn_idx]
        # A non-core point has fewer than min_pts points in its ball, so
        # its whole eps-neighbourhood is among the kept nearest points.
        complete = counts - 1 <= self.nn_idx.shape[1]
        noncore = judged & ~expected_core & complete
        is_noise = labels[sample] == NOISE
        wrong = noncore & (is_noise == core_near.any(axis=1))
        if wrong.any():
            problems.append(
                f"eps={eps} min_pts={min_pts}: noise verdict wrong for "
                f"{int(wrong.sum())} sampled non-core point(s), e.g. {int(sample[wrong][0])}"
            )

        split = (
            (judged & expected_core)[:, None]
            & core_near
            & (labels[self.nn_idx] != labels[sample][:, None])
        )
        if split.any():
            row = int(np.nonzero(split.any(axis=1))[0][0])
            problems.append(
                f"eps={eps} min_pts={min_pts}: core points within eps in different "
                f"clusters for {int(split.any(axis=1).sum())} sampled point(s), "
                f"e.g. {int(sample[row])}"
            )
        return problems
