"""Worker-process side of the parallel grid pipeline.

Each pool worker is initialised once per fan-out with a *payload* dict
carrying the parent's :class:`~repro.grid.cells.Grid` itself — under the
preferred ``fork`` start method the object (including its neighbour
adjacency table, which the parent warms first) is inherited
copy-on-write for free; under ``spawn`` it is pickled once per worker.
The payload also carries the *remaining* time budget and the memory
limit, from which the worker builds its own cooperative
:class:`~repro.runtime.Deadline` and :class:`~repro.runtime.MemoryBudget`
— budgets are polled inside workers exactly as they are in the serial
hot loops, and a worker that trips one re-raises the library's own error
across the pool boundary (the errors are pickle-safe; see
``repro.errors``).

The one task, :func:`cores_task`, runs the *serial* ``count_cores`` over
one range of the parent's :class:`~repro.core.labeling.CorePlan` (in the
payload, inherited like the grid), so serial/parallel drift is impossible
by construction.  It returns only the range's core point indices and
counters, pickled; the parent merges them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.labeling import count_cores
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget

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
    time_remaining = payload.get("time_remaining")
    memory_limit_mb = payload.get("memory_limit_mb")
    return {
        "grid": payload["grid"],
        "deadline": None if time_remaining is None else Deadline(float(time_remaining)),
        "memory": None if memory_limit_mb is None else MemoryBudget(float(memory_limit_mb)),
        "plan": payload.get("plan"),
        "phase": payload.get("phase", ""),
        "fault_spec": payload.get("fault_spec"),
        "in_worker": bool(in_worker),
    }


def init_worker(payload: Dict[str, object]) -> None:
    """Pool initializer: adopt the parent's grid, build per-process guards."""
    global _CTX
    _CTX = build_context(payload, in_worker=True)


def _ctx() -> Dict[str, object]:
    if _CTX is None:
        raise RuntimeError("worker context not initialised; init_worker did not run")
    return _CTX


def cores_task(
    cell_range: Tuple[int, int]
) -> Tuple[Tuple[int, int], np.ndarray, Dict[str, int]]:
    """Count one ``(lo, hi)`` range of the plan: ``(range, core indices, counters)``."""
    ctx = _ctx()
    lo, hi = cell_range
    idx, tally = count_cores(ctx["grid"], ctx["plan"], lo, hi, deadline=ctx["deadline"])
    memory: Optional[MemoryBudget] = ctx["memory"]
    if memory is not None:
        memory.check(str(ctx["phase"]))
    return (lo, hi), idx, tally


#: Task-kind dispatch used by the supervised executor.
_TASKS = {"cores": cores_task}


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

    Builds the task context lazily, once per fan-out (its deadline starts
    counting when the first shard runs in the parent), then runs the
    *same* task functions the workers run — a single source of truth, so a
    quarantined shard's result is indistinguishable from a pooled one.
    The module-global worker context is swapped in around each call and
    restored after, so parent-side execution cannot leak state into a
    later ``init_worker``.
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
