"""Worker-process side of the parallel grid pipeline.

Each pool worker is initialised once per phase with a *payload* dict
carrying the parent's :class:`~repro.grid.cells.Grid` itself — under the
preferred ``fork`` start method the object (including its lazily built,
expensive neighbour-adjacency table, which the parent warms first) is
inherited copy-on-write for free; under ``spawn`` it is pickled once per
worker.  The payload also carries the *remaining* time
budget and the memory limit, from which the worker builds its own
cooperative :class:`~repro.runtime.Deadline` and
:class:`~repro.runtime.MemoryBudget` — budgets are polled inside workers
exactly as they are in the serial hot loops, and a worker that trips one
re-raises the library's own error across the pool boundary (the errors
are pickle-safe; see ``repro.errors``).

Task functions reuse the *serial* implementations (`label_cores`,
`assign_borders`, the cellgraph edge predicates) restricted to a shard's
cells, so there is a single source of truth for the per-cell and per-pair
decisions and serial/parallel drift is impossible by construction.  Each
task returns its shard's result pickled; the parent merges them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.border import assign_borders
from repro.core.cellgraph import (
    approx_edge_predicate,
    core_cells,
    exact_edge_predicate,
)
from repro.core.edgekernel import apply_preunion_dense, cell_arrays, resolve_edges
from repro.core.labeling import label_cores
from repro.grid.cells import CellCoord, Grid
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.unionfind import DenseUnionFind

Pair = Tuple[CellCoord, CellCoord]

#: Per-process context, set by :func:`init_worker` (pool initializer).
_CTX: Optional[Dict[str, object]] = None


def build_context(payload: Dict[str, object], *, in_worker: bool = True) -> Dict[str, object]:
    """Build a task context from a phase payload.

    ``in_worker`` distinguishes a pool worker from the parent process
    re-executing a quarantined shard: injected worker faults (see
    :mod:`repro.runtime.faultinject`) only fire when it is true, because a
    poison shard is by definition one that crashes *workers* but computes
    fine serially.
    """
    grid: Grid = payload["grid"]
    time_remaining = payload.get("time_remaining")
    memory_limit_mb = payload.get("memory_limit_mb")
    ctx: Dict[str, object] = {
        "grid": grid,
        "deadline": None if time_remaining is None else Deadline(float(time_remaining)),
        "memory": None if memory_limit_mb is None else MemoryBudget(float(memory_limit_mb)),
        "min_pts": payload.get("min_pts"),
        "phase": payload.get("phase", ""),
        "edge": None,
        "fault_spec": payload.get("fault_spec"),
        "in_worker": bool(in_worker),
        "known_core": payload.get("known_core"),
    }
    core_mask = payload.get("core_mask")
    if core_mask is not None:
        ctx["core_mask"] = np.asarray(core_mask, dtype=bool)
        ctx["cells"] = core_cells(grid, ctx["core_mask"])
    core_labels = payload.get("core_labels")
    if core_labels is not None:
        ctx["core_labels"] = np.asarray(core_labels, dtype=np.int64)
    # Monotone-sweep connectivity seed, restricted (as on the parent side)
    # to pairs whose cells are both core cells of *this* run.
    preunion = payload.get("preunion")
    if preunion:
        cells = ctx["cells"]
        ctx["preunion"] = [
            (c1, c2) for c1, c2 in preunion if c1 in cells and c2 in cells
        ]
    edge_rule = payload.get("edge_rule")
    if edge_rule == "exact":
        structures = payload.get("structures")
        ctx["edge"] = exact_edge_predicate(
            grid,
            ctx["cells"],
            payload["bcp_strategy"],
            structures=dict(structures) if structures else None,
        )
        ctx["reject_eps"] = None
    elif edge_rule == "approx":
        structures = payload.get("structures")
        ctx["edge"] = approx_edge_predicate(
            grid,
            ctx["cells"],
            payload["rho"],
            payload.get("exact_leaf_size"),
            structures=dict(structures) if structures else None,
            deadline=ctx["deadline"],
        )
        ctx["reject_eps"] = grid.eps * (1.0 + float(payload["rho"]))
    return ctx


def init_worker(payload: Dict[str, object]) -> None:
    """Pool initializer: adopt the parent's grid, build per-process guards."""
    global _CTX
    _CTX = build_context(payload, in_worker=True)


def _ctx() -> Dict[str, object]:
    if _CTX is None:
        raise RuntimeError("worker context not initialised; init_worker did not run")
    return _CTX


def _guards() -> Tuple[Optional[Deadline], Optional[MemoryBudget], str]:
    ctx = _ctx()
    return ctx["deadline"], ctx["memory"], str(ctx["phase"])


def adjacency_task(
    cell_block: Sequence[CellCoord],
) -> List[Tuple[CellCoord, List[CellCoord]]]:
    """All-pairs adjacency rows for one block of cells."""
    ctx = _ctx()
    deadline, memory, phase = _guards()
    if deadline is not None:
        deadline.tick()
    grid: Grid = ctx["grid"]
    rows = grid.adjacency_rows(list(cell_block))
    if memory is not None:
        memory.check(phase)
    return list(rows.items())


def cores_task(cell_block: Sequence[CellCoord]) -> Tuple[np.ndarray, np.ndarray]:
    """Core determination for one shard: its ``(point_indices, core_flags)``."""
    ctx = _ctx()
    deadline, memory, phase = _guards()
    grid: Grid = ctx["grid"]
    mask = label_cores(
        grid,
        int(ctx["min_pts"]),
        deadline=deadline,
        cells=cell_block,
        known_core=ctx.get("known_core"),
    )
    if memory is not None:
        memory.check(phase)
    blocks = [grid.points_in(c) for c in cell_block]
    idx = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return idx, mask[idx]


def _edge_arrays(ctx: Dict[str, object]):
    """Per-phase dense cell arrays for the staged kernel (built once)."""
    arrays = ctx.get("_edge_arrays")
    if arrays is None:
        arrays = ctx["_edge_arrays"] = cell_arrays(
            ctx["grid"].points, ctx["cells"]
        )
    return arrays


def edges_task(pairs: Sequence[Pair]) -> List[Pair]:
    """Resolve a chunk of oriented candidate pairs; return the unions made.

    The chunk runs the staged edge kernel
    (:func:`repro.core.edgekernel.resolve_edges`) against a chunk-local
    forest: vectorised quick-accept/quick-reject passes settle most pairs,
    survivors run the per-pair predicate cheapest-first, and the
    chunk-local connectivity short-circuits redundant tests (for an
    intra-shard chunk this is the full serial short-circuit).  Only the
    unions that *merged* two chunk-local components are emitted — that
    subset spans the same connectivity as the chunk's true edge set, so
    the parent's stitching pass reconstructs the global components
    exactly.

    A monotone-sweep ``preunion`` seed (when present) is folded into the
    chunk-local forest too: pairs its connectivity already covers skip
    their edge tests and are *not* emitted — sound because the parent
    seeds its stitching forest with the very same pairs.
    """
    ctx = _ctx()
    deadline, memory, phase = _guards()
    arrays = _edge_arrays(ctx)
    uf = DenseUnionFind(len(arrays))
    apply_preunion_dense(uf, arrays.index, ctx.get("preunion"))
    grid: Grid = ctx["grid"]
    index = arrays.index
    ii = np.fromiter((index[c1] for c1, _ in pairs), dtype=np.int64, count=len(pairs))
    jj = np.fromiter((index[c2] for _, c2 in pairs), dtype=np.int64, count=len(pairs))
    unions = resolve_edges(
        grid.points, grid.eps, arrays, ii, jj, uf, ctx["edge"],
        reject_eps=ctx.get("reject_eps"), deadline=deadline,
    )
    keys = arrays.keys
    out: List[Pair] = [(keys[a], keys[b]) for a, b in unions]
    if memory is not None:
        memory.check(phase)
    return out


def borders_task(
    cell_block: Sequence[CellCoord],
) -> List[Tuple[int, Tuple[int, ...]]]:
    """Border assignment for one shard, as ``(point, cluster-ids)`` items."""
    ctx = _ctx()
    deadline, memory, phase = _guards()
    out = assign_borders(
        ctx["grid"],
        ctx["core_mask"],
        ctx["core_labels"],
        deadline=deadline,
        cells=cell_block,
    )
    if memory is not None:
        memory.check(phase)
    return list(out.items())


#: Task-kind dispatch used by the supervised executor.
_TASKS = {
    "adjacency": adjacency_task,
    "cores": cores_task,
    "edges": edges_task,
    "borders": borders_task,
}


def supervised_task(kind: str, seq: int, item):
    """Run one tracked shard: fault check, then dispatch on ``kind``.

    The supervisor submits every shard through this wrapper so each task
    carries a stable ``(phase, seq)`` identity — the address injected
    worker faults (kill / hang / poison) are keyed on, and the unit the
    parent's retry and quarantine bookkeeping tracks.
    """
    ctx = _ctx()
    spec = ctx.get("fault_spec")
    if spec is not None and ctx.get("in_worker", True):
        from repro.runtime import faultinject

        faultinject.trigger_worker_fault(spec, str(ctx["phase"]), int(seq))
    return _TASKS[kind](item)


def make_local_runner(payload: Dict[str, object]):
    """A parent-process shard executor for quarantine / serial requeue.

    Builds the task context lazily (edge predicates are not free) and only
    once per phase, then runs the *same* task functions the workers run —
    a single source of truth, so a quarantined shard's result is
    indistinguishable from a pooled one.  The module-global worker context
    is swapped in around each call and restored after, so parent-side
    execution cannot leak state into a later ``init_worker``.
    """
    state: Dict[str, object] = {}

    def run(kind: str, item):
        global _CTX
        if "ctx" not in state:
            state["ctx"] = build_context(payload, in_worker=False)
        prev = _CTX
        _CTX = state["ctx"]
        try:
            return _TASKS[kind](item)
        finally:
            _CTX = prev

    return run
