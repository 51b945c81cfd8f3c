"""Worker-process side of the parallel grid pipeline.

Each worker process runs :func:`serve` with a *payload* dict carrying the
parent's :class:`~repro.grid.cells.Grid` itself — under the preferred
``fork`` start method the object (including its neighbour adjacency
table, which the parent warms first) is inherited copy-on-write for free;
under ``spawn`` it is pickled once per worker.  The payload also carries
the *remaining* time budget and the memory limit, from which the worker
builds its own cooperative :class:`~repro.runtime.Deadline` and
:class:`~repro.runtime.MemoryBudget` — budgets are polled inside workers
exactly as they are in the serial hot loops, and a worker that trips one
sends the library's own error back to the parent (the errors are
pickle-safe; see ``repro.errors``).

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
from repro.runtime import faultinject
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget

#: Per-process context, set by :func:`init_worker`.
_CTX: Optional[Dict[str, object]] = None


def build_context(payload: Dict[str, object]) -> Dict[str, object]:
    """Build a task context (grid, plan, per-process guards) from a phase payload."""
    time_remaining = payload.get("time_remaining")
    memory_limit_mb = payload.get("memory_limit_mb")
    return {
        "grid": payload["grid"],
        "deadline": None if time_remaining is None else Deadline(float(time_remaining)),
        "memory": None if memory_limit_mb is None else MemoryBudget(float(memory_limit_mb)),
        "plan": payload.get("plan"),
        "phase": payload.get("phase", ""),
    }


def init_worker(payload: Dict[str, object]) -> None:
    """Adopt the parent's grid and plan, build per-process guards."""
    global _CTX
    _CTX = build_context(payload)


def _ctx() -> Dict[str, object]:
    if _CTX is None:
        raise RuntimeError("worker context not initialised; init_worker did not run")
    return _CTX


def _count(
    ctx: Dict[str, object], cell_range: Tuple[int, int]
) -> Tuple[Tuple[int, int], np.ndarray, Dict[str, int]]:
    lo, hi = cell_range
    idx, tally = count_cores(ctx["grid"], ctx["plan"], lo, hi, deadline=ctx["deadline"])
    memory: Optional[MemoryBudget] = ctx["memory"]
    if memory is not None:
        memory.check(str(ctx["phase"]))
    return (lo, hi), idx, tally


def cores_task(
    cell_range: Tuple[int, int]
) -> Tuple[Tuple[int, int], np.ndarray, Dict[str, int]]:
    """Count one ``(lo, hi)`` range of the plan: ``(range, core indices, counters)``."""
    return _count(_ctx(), cell_range)


def serve(conn, payload: Dict[str, object], inherited=()) -> None:
    """Worker-process loop: answer each ``(seq, range)`` on ``conn`` with ``(seq, ok, value)``.

    ``inherited`` are the parent's pipe ends this process got through the
    fork; closing them means the worker sees EOF (or a broken pipe), and
    returns, once the parent is gone.  Injected worker faults (see
    :mod:`repro.runtime.faultinject`) fire here, keyed on ``(phase, seq)``,
    and never in the parent, because a poison range is by definition one
    that fails in workers but computes fine serially.
    """
    for end in inherited:
        end.close()
    init_worker(payload)
    phase = str(payload.get("phase", ""))
    spec = payload.get("fault_spec")
    try:
        while True:
            seq, item = conn.recv()
            try:
                if spec is not None:
                    faultinject.trigger_worker_fault(spec, phase, seq)
                reply = (seq, True, cores_task(item))
            except Exception as exc:  # sent back: the parent decides
                reply = (seq, False, exc)
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        return  # the parent is gone


def make_local_runner(payload: Dict[str, object]):
    """A parent-process range runner for the ranges a fault left unfinished.

    Runs the *same* task function the workers run — a single source of
    truth, so a range counted in the parent is indistinguishable from a
    pooled one — over a context built once, from the same payload.
    """
    ctx = build_context(payload)
    return lambda cell_range: _count(ctx, cell_range)
