"""Parent-process orchestration of the parallel grid pipeline.

One phase fans out: core labeling.  The parent builds its plan once
(:func:`~repro.core.labeling.plan_cores`), then forks supervised
worker processes that inherit it and run the serial
:func:`~repro.core.labeling.count_cores` over ranges of its live cells;
the parent writes each range's core indices into the plan's mask.  The
core-cell connectivity, the border assignment and the cell-adjacency
build run serially in the parent: measured on a 2-CPU host with 2
workers, components and borders lost to serial on every input and the
(then all-pairs) adjacency build on 4 of 5 grids, because shipping and
merging their results costs more than the work itself
(``docs/PARALLEL.md``, "Phase by phase").

The count runs in the parent instead when the resolved worker count is
1, when the plan leaves fewer than :attr:`ParallelConfig.min_points`
queries open, or when it has a single range of work.  Workers poll the
remaining time budget and the memory limit cooperatively (see
``repro.parallel.worker``).

It runs under the one-rung supervisor
(:mod:`repro.parallel.supervisor`): the parent owns its worker processes,
and on any fault (a worker error, a dead worker, a hung range) it tears
them down in bounded time and counts every unfinished range itself —
while budget errors raised *inside* workers still re-raise promptly.

**Transport.** Workers start with ``fork`` where the platform has it, so
workers inherit the parent's warm :class:`~repro.grid.cells.Grid`
copy-on-write, and the core plan with it; ``(lo, hi)`` task items and
range results (core indices, counters) travel pickled.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import config
from repro.core.border import assign_borders
from repro.core.cellgraph import approx_components, exact_components
from repro.core.labeling import count_cores, plan_cores
from repro.errors import ParameterError
from repro.grid.cells import Grid
from repro.parallel import worker
from repro.parallel.supervisor import run_supervised
from repro.runtime import faultinject
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger

_log = get_logger("parallel.executor")

#: Ranges per worker for the cores fan-out: mild over-sharding lets the
#: workers absorb what the planned-slot balance misses.
OVERSHARD = 4


@dataclass(frozen=True)
class ParallelConfig:
    """How the grid pipeline fans core labeling out over processes.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` disables the fan-out entirely.
    min_points:
        Fan-out gate: a core plan leaving fewer open counting queries
        (after the dense quick-accept, the carry and the upper-bound
        reject) is counted in the parent; ``0`` fans out every plan with
        work.  Defaults to ``REPRO_PARALLEL_MIN_POINTS`` (see
        :func:`repro.config.parallel_min_points`).
    shard_timeout:
        Per-range soft timeout in seconds; a range in flight longer than
        this is a fault: the workers are torn down and the parent counts
        every unfinished range.  ``None`` (the ``REPRO_SHARD_TIMEOUT``
        default) derives the threshold from the run's deadline, falling
        back to a generous built-in liveness bound.
    """

    workers: int = 1
    min_points: int = field(default_factory=config.parallel_min_points)
    shard_timeout: Optional[float] = field(default_factory=config.shard_timeout)

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise ParameterError(f"workers must be >= 1; got {self.workers}")
        if self.shard_timeout is not None and not float(self.shard_timeout) > 0:
            raise ParameterError(
                f"shard_timeout must be positive (or None); got {self.shard_timeout}"
            )


WorkersLike = Union[None, int, ParallelConfig]


def as_parallel_config(workers: WorkersLike) -> Optional[ParallelConfig]:
    """Normalise the public ``workers`` argument.

    ``None`` consults :func:`repro.config.default_workers` (the
    ``REPRO_WORKERS`` environment default); an integer becomes a default
    :class:`ParallelConfig`; a ready-made config passes through.  ``None``
    is returned whenever the resolved worker count is 1, so callers can
    use ``cfg is None`` as "strictly serial".
    """
    if workers is None:
        workers = config.default_workers()
    if isinstance(workers, ParallelConfig):
        return None if workers.workers == 1 else workers
    count = int(workers)
    if count < 1:
        raise ParameterError(f"workers must be >= 1; got {workers}")
    return None if count == 1 else ParallelConfig(workers=count)


def effective_workers(
    cfg: Optional[ParallelConfig], open_points: int, n_ranges: int
) -> int:
    """Worker count for a plan with ``open_points`` queries in ``n_ranges`` ranges (1: none)."""
    if cfg is None or open_points < cfg.min_points:
        return 1
    return max(1, min(int(cfg.workers), n_ranges))


def _base_payload(
    grid: Grid,
    phase: str,
    deadline: Optional[Deadline],
    memory: Optional[MemoryBudget],
) -> Dict[str, object]:
    time_remaining = None
    if deadline is not None and deadline.budget is not None:
        # Workers measure from their own start, so hand them what is left.
        time_remaining = max(deadline.remaining(), 1e-3)
    memory_limit_mb = None
    if memory is not None and memory.limit_bytes is not None:
        memory_limit_mb = memory.limit_bytes / 1e6
    return {
        "grid": grid,
        "phase": phase,
        "time_remaining": time_remaining,
        "memory_limit_mb": memory_limit_mb,
        # Snapshot of any active worker-fault injection (tests only; None
        # in production).  Shipped in the payload so the spec reaches
        # workers under both fork and spawn.
        "fault_spec": faultinject.worker_fault_spec(),
    }


# ------------------------------------------------------------ copy ledger

#: Active copy-bytes ledger (None outside :func:`track_copy_bytes`).  The
#: workers run under ``fork``, so the phase payload is inherited, not
#: pickled — what actually crosses the process boundary per run are the
#: task items going out and the results coming back, and that is what the
#: ledger measures (via ``pickle.dumps``, the same encoder the pipes use).
_COPY_LEDGER: Optional[Dict[str, int]] = None


@contextmanager
def track_copy_bytes():
    """Measure pickled transport bytes for every fan-out in the block.

    Yields a dict updated in place: ``task_bytes`` / ``result_bytes`` /
    ``tasks``.  The scaling bench and the benchmark's sweep workload report
    it; not thread-safe (one measurement at a time, which is what a bench
    does).
    """
    global _COPY_LEDGER
    ledger = {"task_bytes": 0, "result_bytes": 0, "tasks": 0}
    prev = _COPY_LEDGER
    _COPY_LEDGER = ledger
    try:
        yield ledger
    finally:
        _COPY_LEDGER = prev


def _count_copies(items, consume):
    """Wrap one fan-out's items/consume with ledger accounting."""
    ledger = _COPY_LEDGER
    if ledger is None:
        return items, consume
    items = list(items)
    ledger["tasks"] += len(items)
    ledger["task_bytes"] += sum(
        len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)) for item in items
    )

    def counting_consume(result):
        ledger["result_bytes"] += len(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )
        consume(result)

    return items, counting_consume


def _fan_out(
    cfg: ParallelConfig,
    n_workers: int,
    payload: Dict[str, object],
    kind: str,
    items,
    consume,
    *,
    deadline: Optional[Deadline],
    memory: Optional[MemoryBudget],
) -> None:
    """Distribute one phase's tasks over supervised workers and merge.

    ``consume`` must be idempotent (the cores merge keys each result by
    its range), so a range finished in the parent after a fault counts
    once however far a worker got with it.
    """
    items, consume = _count_copies(items, consume)
    run_supervised(
        worker.serve, payload, n_workers, items, consume,
        phase=str(payload.get("phase", kind)),
        local_runner=worker.make_local_runner(payload),
        shard_timeout=cfg.shard_timeout, deadline=deadline, memory=memory,
    )


def parallel_label_cores(
    grid: Grid,
    min_pts: int,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`~repro.core.labeling.label_cores`, its count fanned out over workers.

    The plan is built once, before any fork; the count fans out only when
    :func:`effective_workers` passes it, else it runs in the parent.  Each
    range's result is kept under its ``(lo, hi)`` key, so a duplicated
    result counts once, and merged after the fan-out.
    """
    plan = plan_cores(grid, min_pts, deadline=deadline, known_core=known_core)
    ranges = plan.ranges(cfg.workers * OVERSHARD) if cfg is not None else []
    n_workers = effective_workers(cfg, len(plan.open_q), len(ranges))
    if n_workers <= 1:
        return plan.merge([count_cores(grid, plan, deadline=deadline)])
    if deadline is not None:
        deadline.check()
    if memory is not None:
        memory.check("cores")
    payload = _base_payload(grid, "cores", deadline, memory)
    payload["plan"] = plan
    results: Dict[Tuple[int, int], object] = {}
    _log.debug("cores phase: %d ranges over %d workers", len(ranges), n_workers)

    def keep(result) -> None:
        cell_range, idx, tally = result
        results[cell_range] = (idx, tally)

    _fan_out(
        cfg, n_workers, payload, "cores", ranges, keep,
        deadline=deadline, memory=memory,
    )
    return plan.merge(results.values())


# -------------------------------------------------- serial pass-throughs
#
# The phases below no longer fan out; these names keep their signatures
# for ``perfbench/workload.py``, which imports them, and nothing under
# ``src/`` calls them.  They go at the next change to that file.


def parallel_warm_neighbors(
    grid: Grid,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> None:
    """Serial pass-through: :meth:`Grid.warm_neighbors <repro.grid.cells.Grid.warm_neighbors>`."""
    grid.warm_neighbors()


def parallel_exact_components(
    grid: Grid,
    core_mask: np.ndarray,
    cfg: Optional[ParallelConfig],
    bcp_strategy: str = "auto",
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    preunion=None,
    structures=None,
) -> Tuple[np.ndarray, int]:
    """Serial pass-through: :func:`repro.core.cellgraph.exact_components`."""
    return exact_components(
        grid, core_mask, bcp_strategy,
        deadline=deadline, preunion=preunion, structures=structures,
    )


def parallel_approx_components(
    grid: Grid,
    core_mask: np.ndarray,
    cfg: Optional[ParallelConfig],
    rho: float,
    exact_leaf_size: int | None = None,
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    preunion=None,
    structures=None,
) -> Tuple[np.ndarray, int]:
    """Serial pass-through: :func:`repro.core.cellgraph.approx_components`."""
    return approx_components(
        grid, core_mask, rho, exact_leaf_size,
        deadline=deadline, preunion=preunion, structures=structures,
    )


def parallel_assign_borders(
    grid: Grid,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> Dict[int, Tuple[int, ...]]:
    """Serial pass-through: :func:`repro.core.border.assign_borders`."""
    return assign_borders(grid, core_mask, core_labels, deadline=deadline)


# ------------------------------------------------------ shared-memory probes


#: ``/dev/shm`` name prefix of the shared-memory segments earlier releases
#: published; :func:`leaked_segments` keeps scanning for it.
SEGMENT_PREFIX = "repro-shm"


def leaked_segments() -> List[str]:
    """Live ``/dev/shm`` entries carrying this library's segment prefix.

    The parallel pipeline allocates no shared memory, so this is empty
    unless something outside the current transport created such a
    segment; leak checks in tests and the benchmark keep asserting that.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


def unpublish_grid(grid: Grid) -> None:
    """No-op, kept for callers written against the shared-memory transport.

    Grids are no longer published to shared memory (workers inherit them
    under ``fork``), so there is nothing to release.
    """
