"""Parent-process orchestration of the parallel grid pipeline.

One phase fans out: core labeling.  It is per-cell work over read-only
inputs, so spatially contiguous cell shards run the serial
:func:`~repro.core.labeling.label_cores` independently over a supervised
``multiprocessing.Pool`` and the parent writes each shard's flags into
one global mask.  The core-cell connectivity, the border assignment and
the cell-adjacency build run serially in the parent: measured on a
2-CPU host with 2 workers, components and borders lost to serial on
every input and the (then all-pairs) adjacency build on 4 of 5 grids,
because shipping and merging their results costs more than the work
itself (``docs/PARALLEL.md``, "Phase by phase").

The fan-out falls back to the serial implementation when the resolved
worker count is 1, the input is below :attr:`ParallelConfig.min_points`,
or there are fewer cells than workers.  Workers poll the remaining time
budget and the memory limit cooperatively (see ``repro.parallel.worker``).

It runs under the fault-tolerant supervisor
(:mod:`repro.parallel.supervisor`): dead workers and hung shards are
detected, the pool is respawned, failed shards are retried with backoff
and ultimately quarantined to serial parent-side execution — while budget
errors raised *inside* workers still re-raise promptly.

**Transport.** Pools start with ``fork`` where the platform has it, so
workers inherit the parent's warm :class:`~repro.grid.cells.Grid`
copy-on-write; task items (cell lists) and shard results travel pickled.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import config
from repro.core.border import assign_borders
from repro.core.cellgraph import approx_components, exact_components
from repro.core.labeling import label_cores
from repro.errors import ParameterError
from repro.grid.cells import Grid
from repro.parallel import worker
from repro.parallel.shard import shard_cells
from repro.parallel.supervisor import run_supervised
from repro.runtime import faultinject
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger

_log = get_logger("parallel.executor")

#: Shards per worker for the cores fan-out: mild over-sharding lets the
#: pool rebalance skewed cell occupancy across its workers.
OVERSHARD = 4

#: Pool start method: ``fork`` where available (workers inherit the grid
#: copy-on-write), else the platform default.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else None


@dataclass(frozen=True)
class ParallelConfig:
    """How the grid pipeline fans core labeling out over processes.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` disables the pool entirely.
    min_points:
        Serial fallback threshold: inputs smaller than this never spawn a
        pool (startup + payload transfer dominate the work there).  The
        default follows ``REPRO_PARALLEL_MIN_POINTS`` (see
        :func:`repro.config.parallel_min_points`).
    max_shard_retries:
        How many times a failed (or crash-lost) shard is resubmitted to
        the pool before quarantine.  Defaults to ``REPRO_MAX_SHARD_RETRIES``
        (see :func:`repro.config.max_shard_retries`).
    shard_timeout:
        Per-shard soft timeout in seconds; a shard in flight longer than
        this is declared hung, the pool is respawned, and the lost shards
        retried.  ``None`` (the ``REPRO_SHARD_TIMEOUT`` default) derives
        the threshold from the run's deadline, falling back to a generous
        built-in liveness bound.
    quarantine:
        Whether a shard that exhausts its retries (or outlives the pool's
        respawn budget) is re-executed serially in the parent.  With
        ``False`` the supervisor raises
        :class:`~repro.errors.WorkerPoolError` instead — which
        :func:`repro.runtime.run_resilient` treats as degradable.
    max_pool_respawns:
        How many times a broken pool (dead worker / hung shard) is
        rebuilt before the supervisor abandons it and serially requeues
        the remaining shards in the parent.
    """

    workers: int = 1
    min_points: int = field(default_factory=config.parallel_min_points)
    max_shard_retries: int = field(default_factory=config.max_shard_retries)
    shard_timeout: Optional[float] = field(default_factory=config.shard_timeout)
    quarantine: bool = True
    max_pool_respawns: int = 2

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise ParameterError(f"workers must be >= 1; got {self.workers}")
        if int(self.max_shard_retries) < 0:
            raise ParameterError(
                f"max_shard_retries must be >= 0; got {self.max_shard_retries}"
            )
        if self.shard_timeout is not None and not float(self.shard_timeout) > 0:
            raise ParameterError(
                f"shard_timeout must be positive (or None); got {self.shard_timeout}"
            )
        if int(self.max_pool_respawns) < 0:
            raise ParameterError(
                f"max_pool_respawns must be >= 0; got {self.max_pool_respawns}"
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
    cfg: Optional[ParallelConfig], n_points: int, n_cells: int
) -> int:
    """Resolved worker count for the cores fan-out (1 means run serial)."""
    if cfg is None:
        return 1
    if n_points < cfg.min_points:
        return 1
    return max(1, min(int(cfg.workers), n_cells))


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
#: pools run under ``fork``, so the initializer payload is inherited, not
#: pickled — what actually crosses the process boundary per run are the
#: task items going out and the results coming back, and that is what the
#: ledger measures (via ``pickle.dumps``, the same encoder the pool uses).
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
    """Distribute one phase's tasks over the supervised pool and merge.

    ``consume`` must be order-independent and idempotent (the cores merge
    is a disjoint index write), which is what lets the supervisor keep
    completed work across pool respawns and tolerate a duplicate result
    from a torn-down pool.
    """
    items, consume = _count_copies(items, consume)
    run_supervised(
        pool_factory=lambda: _pool(cfg, n_workers, payload),
        task=worker.supervised_task,
        kind=kind,
        phase=str(payload.get("phase", kind)),
        items=items,
        consume=consume,
        cfg=cfg,
        deadline=deadline,
        memory=memory,
        local_runner=worker.make_local_runner(payload),
    )


def _pool(cfg: ParallelConfig, n_workers: int, payload: Dict[str, object]):
    ctx = mp.get_context(_START_METHOD)
    return ctx.Pool(
        processes=n_workers, initializer=worker.init_worker, initargs=(payload,)
    )


def _check_guards(deadline: Optional[Deadline], memory: Optional[MemoryBudget], phase: str) -> None:
    if deadline is not None:
        deadline.check()
    if memory is not None:
        memory.check(phase)


def parallel_label_cores(
    grid: Grid,
    min_pts: int,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Phase-2 core determination, sharded over the pool (or serial).

    ``known_core`` is the monotone-sweep hint of
    :func:`repro.core.labeling.label_cores`: points already known core skip
    their counting pass.  It rides in the payload, so pooled shards profit
    exactly like the serial path.
    """
    n_workers = effective_workers(cfg, len(grid.points), len(grid))
    if n_workers <= 1:
        return label_cores(grid, min_pts, deadline=deadline, known_core=known_core)
    _check_guards(deadline, memory, "cores")
    # Warm the adjacency map before forking so every worker inherits it
    # instead of rebuilding it (a no-op when the pipeline already did).
    grid.warm_neighbors()
    weights = {c: len(idx) for c, idx in grid.cells.items()}
    shards = shard_cells(grid.cells.keys(), n_workers * OVERSHARD, weights)
    payload = _base_payload(grid, "cores", deadline, memory)
    payload["min_pts"] = int(min_pts)
    payload["known_core"] = known_core
    core = np.zeros(len(grid.points), dtype=bool)
    _log.debug("cores phase: %d shards over %d workers", len(shards), n_workers)

    def merge_cores(result) -> None:
        idx, flags = result
        core[idx] = flags

    _fan_out(
        cfg, n_workers, payload, "cores", shards, merge_cores,
        deadline=deadline, memory=memory,
    )
    return core


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
