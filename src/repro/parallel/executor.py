"""Orchestration of the parallel grid pipeline: one in-process fan-out.

One phase fans out: core labeling.  The caller builds its plan once
(:func:`~repro.core.labeling.plan_cores`), then runs the serial
:func:`~repro.core.labeling.count_cores` over ranges of its live cells on
a per-call thread pool, and writes each range's core indices into the
plan's mask (:meth:`~repro.core.labeling.CorePlan.merge`).  Every range
reads the same read-only grid and plan, as the paper's labeling process
decides each sparse cell independently, and NumPy's gathers and matrix
products release the GIL, so the ranges overlap on separate cores.  The
core-cell connectivity, the border assignment and the cell-adjacency build
run serially: measured on a 2-CPU host, they lost to serial on every
input when they fanned out (``docs/PARALLEL.md``, "Phase by phase").

The count runs in the calling thread instead when the resolved worker
count is 1, when the plan leaves fewer than :attr:`ParallelConfig.min_points`
queries open, or when it has a single range of work.  Each range polls the
run's deadline once per tile, exactly as the serial count does, and an
error raised in a range (a :class:`~repro.errors.TimeoutExceeded`
included) propagates to the caller once every thread has stopped.
"""

from __future__ import annotations

import os
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
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger

_log = get_logger("parallel.executor")

#: Ranges per worker for the cores fan-out: mild over-sharding lets the
#: threads absorb what the planned-slot balance misses.
OVERSHARD = 4


@dataclass(frozen=True)
class ParallelConfig:
    """How the grid pipeline fans core labeling out over threads.

    Parameters
    ----------
    workers:
        Thread count for the cores fan-out.  ``1`` disables it entirely.
    min_points:
        Fan-out gate: a core plan leaving fewer open counting queries
        (after the dense quick-accept, the carry and the upper-bound
        reject) is counted in the calling thread; ``0`` fans out every
        plan with work.  Defaults to ``REPRO_PARALLEL_MIN_POINTS`` (see
        :func:`repro.config.parallel_min_points`).
    """

    workers: int = 1
    min_points: int = field(default_factory=config.parallel_min_points)

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise ParameterError(f"workers must be >= 1; got {self.workers}")


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


# ------------------------------------------------------------ task ledger

#: Active task ledger (None outside :func:`track_copy_bytes`).
_COPY_LEDGER: Optional[Dict[str, int]] = None


@contextmanager
def track_copy_bytes():
    """Count the ranges every fan-out in the block hands to its threads.

    Yields a dict updated in place: ``tasks`` counts ranges, while
    ``task_bytes`` / ``result_bytes`` stay 0 (the threads share the grid
    and the plan, so nothing is copied).  The scaling bench and the
    benchmark's sweep workload report it; not thread-safe (one measurement
    at a time, which is what a bench does).
    """
    global _COPY_LEDGER
    ledger = {"task_bytes": 0, "result_bytes": 0, "tasks": 0}
    prev = _COPY_LEDGER
    _COPY_LEDGER = ledger
    try:
        yield ledger
    finally:
        _COPY_LEDGER = prev


def label_cores_on_threads(
    grid: Grid,
    min_pts: int,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    known_core: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """:func:`~repro.core.labeling.label_cores`, its count spread over threads.

    Returns the core mask and the number of threads that counted it (1
    when :func:`effective_workers` gated the plan into the calling
    thread).  The pool lives for this call only: ``map`` keeps the ranges
    in order, the first error cancels the ranges not yet started and
    re-raises here, and leaving the ``with`` block joins every thread.
    """
    plan = plan_cores(grid, min_pts, deadline=deadline, known_core=known_core)
    ranges = plan.ranges(cfg.workers * OVERSHARD) if cfg is not None else []
    n_workers = effective_workers(cfg, len(plan.open_q), len(ranges))
    if n_workers <= 1:
        return plan.merge([count_cores(grid, plan, deadline=deadline)]), 1
    # Imported here: serial runs, and ``import repro``, never need it.
    from concurrent.futures import ThreadPoolExecutor

    if _COPY_LEDGER is not None:
        _COPY_LEDGER["tasks"] += len(ranges)
    grid.adjacency()  # built here, so no range thread races the lazy build
    _log.debug("cores phase: %d ranges over %d threads", len(ranges), n_workers)

    def count(cell_range: Tuple[int, int]) -> Tuple[np.ndarray, Dict[str, int]]:
        return count_cores(grid, plan, *cell_range, deadline=deadline)

    with ThreadPoolExecutor(n_workers, thread_name_prefix="repro-cores") as pool:
        try:
            results = list(pool.map(count, ranges))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    if memory is not None:
        memory.check("cores")
    return plan.merge(results), n_workers


def parallel_label_cores(
    grid: Grid,
    min_pts: int,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The core mask of :func:`label_cores_on_threads`."""
    return label_cores_on_threads(
        grid, min_pts, cfg, deadline=deadline, memory=memory, known_core=known_core
    )[0]


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

    Grids are no longer published to shared memory (the threads of the
    cores fan-out share them), so there is nothing to release.
    """
