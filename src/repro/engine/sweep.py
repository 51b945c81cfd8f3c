"""Monotone carry-forward logic for incremental multi-eps sweeps.

Everything the engine reuses between consecutive sweep steps is justified
by the monotonicity underlying the Sandwich Theorem (Theorem 3):

* **core status** — ``|B(p, eps)|`` only grows with ``eps``, so a point
  that is core at ``eps_1 <= eps_2`` is core at ``eps_2``.  The previous
  step's core mask is therefore a sound ``known_core`` lower bound for the
  labeling phase (both the exact and the approximate algorithm label cores
  *exactly*).

* **exact connectivity** — if two core points are in the same exact
  cluster at ``eps_1``, they are in the same exact cluster at any
  ``eps_2 >= eps_1`` (density-reachability only gains witnesses).  The
  cells holding them therefore lie in the same component of the core-cell
  graph at ``eps_2``, so the previous step's per-cluster cell chains can be
  pre-unioned (:func:`repro.core.edgekernel.apply_preunion_dense`) and skip
  their BCP tests.

* **approximate connectivity** — a rho-approximate cluster at ``eps_1``
  is contained in an *exact* cluster at ``eps_1 (1 + rho)`` (Theorem 3),
  which is contained in an exact cluster at any ``eps_2 >= eps_1 (1+rho)``,
  which is contained in a rho-approximate cluster at ``eps_2``.  Hence
  carrying approximate connectivity forward is sound **only when**
  ``eps_2 >= eps_1 (1 + rho)`` — :func:`approx_carry_ok` is that gate, and
  the engine simply drops the preunion seed for closer-spaced steps
  (the core-mask carry stays valid regardless).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.result import Clustering
from repro.errors import ParameterError
from repro.grid.cells import Grid


def ascending_order(eps_list: Sequence[float]) -> List[int]:
    """Positions of ``eps_list`` sorted by value (stable), smallest first.

    The sweep computes in this order so every step can reuse the previous
    (smaller-eps) step's monotone products, and scatters the results back
    into the caller's original order.
    """
    if len(eps_list) == 0:
        raise ParameterError("eps_list must not be empty")
    values = [float(e) for e in eps_list]
    for e in values:
        if not e > 0:
            raise ParameterError(f"every eps must be positive; got {e}")
    return sorted(range(len(values)), key=lambda i: values[i])


def approx_carry_ok(prev_eps: float, eps: float, rho: float) -> bool:
    """True when approximate connectivity at ``prev_eps`` implies
    connectivity at ``eps`` (the Theorem 3 containment chain closes)."""
    return eps >= prev_eps * (1.0 + rho)


def preunion_pairs(prev: Clustering, grid: Grid) -> np.ndarray:
    """Cell pairs of ``grid`` known connected from a previous sweep step.

    Returns a ``(k, 2)`` array of grid cell ids.  For each cluster of
    ``prev``, the cells of ``grid`` covering the cluster's *core* points
    all belong to one component of the current core-cell graph (see the
    module docstring for when a caller may rely on this).  A chain of
    consecutive-cell pairs per cluster is the cheapest seed spanning that
    knowledge — ``k`` distinct cells produce ``k - 1`` pairs.

    Only core points are used: border points may sit in cells with no core
    point at all, and carry no connectivity of their own.
    """
    core_idx = np.nonzero(prev.core_mask)[0]
    # One sort of packed (label, cell id) keys: each cluster's distinct
    # cells come out contiguous and ascending, and chaining them is a
    # pair per consecutive same-label key.
    m = len(grid)
    labels = prev.labels[core_idx].astype(np.int64)
    label, cell = np.divmod(np.unique(labels * m + grid.point_cell[core_idx]), m)
    same_label = np.nonzero(label[1:] == label[:-1])[0]
    return np.column_stack((cell[same_label], cell[same_label + 1]))
