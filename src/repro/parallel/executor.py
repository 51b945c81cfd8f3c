"""Parent-process orchestration of the parallel grid pipeline.

The three data-parallel phases of the shared pipeline (core labeling,
core-cell graph connectivity, border assignment) fan out as chunked
shard tasks over a supervised ``multiprocessing.Pool``:

* **cores / borders** — per-cell work with read-only inputs; shards of
  spatially contiguous cells are processed independently and the results
  (index/flag arrays, border dicts) merged by direct writes;
* **components** — candidate cell pairs are split into intra-shard lists
  (each evaluated under a worker-local union-find, i.e. a per-shard
  forest) and cross-shard *boundary* chunks; every task returns the pairs
  it actually united, and the parent stitches all of them into one global
  :class:`~repro.utils.unionfind.DenseUnionFind` over dense cell ids in
  the same insertion order the serial path uses — which makes
  the final component labels *identical*, not merely isomorphic.  Inside
  each chunk the workers run the same staged edge kernel
  (:mod:`repro.core.edgekernel`) the serial builders use.

Every phase falls back to the serial implementation when the resolved
worker count is 1, the input is below :attr:`ParallelConfig.min_points`,
or there are fewer cells than workers.  Workers poll the remaining time
budget and the memory limit cooperatively (see ``repro.parallel.worker``).

Every fan-out runs under the fault-tolerant supervisor
(:mod:`repro.parallel.supervisor`): dead workers and hung shards are
detected, the pool is respawned, failed shards are retried with backoff
and ultimately quarantined to serial parent-side execution — while budget
errors raised *inside* workers still re-raise promptly.

**Transport.** With ``ParallelConfig(shm=True)`` (or ``"auto"``, or
``REPRO_SHM``) the phases switch to the zero-copy shared-memory transport
of :mod:`repro.parallel.shm`: the grid's SoA state is published once into
named segments, task items shrink to ``(start, stop)`` ranges over the
shard layout, and workers write results into preallocated shared output
slabs instead of pickling them back.  Slab writes are position-stable and
idempotent, so every rung of the supervisor's recovery ladder (retry,
respawn, quarantine, serial requeue) works unchanged — a retried shard
simply rewrites the same slots.  The parent owns every segment and
unlinks it in ``finally`` blocks (plus an atexit net), so no error path
can leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import config
from repro.core.border import assign_borders
from repro.core.cellgraph import (
    approx_components,
    core_cells,
    exact_components,
    labels_from_dense,
)
from repro.core.edgekernel import apply_preunion_dense
from repro.core.labeling import label_cores
from repro.errors import MemoryBudgetExceeded, ParameterError, WorkerPoolError
from repro.grid.cells import Grid
from repro.parallel import shm as shm_transport
from repro.parallel import worker
from repro.parallel.shard import assign_shards, chunked, shard_cells, split_pairs
from repro.parallel.supervisor import run_supervised
from repro.runtime import faultinject
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger
from repro.utils.unionfind import DenseUnionFind

_log = get_logger("parallel.executor")

#: Shards per worker for the per-cell phases: mild over-sharding lets the
#: pool rebalance skewed cell occupancy across its workers.
OVERSHARD = 4


@dataclass(frozen=True)
class ParallelConfig:
    """How the grid pipeline distributes work over processes.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` disables the pool entirely.
    min_points:
        Serial fallback threshold: inputs smaller than this never spawn a
        pool (startup + payload transfer dominate the work there).  The
        default follows ``REPRO_PARALLEL_MIN_POINTS`` (see
        :func:`repro.config.parallel_min_points`).
    chunk_pairs:
        Boundary-edge chunk size for the component phase.
    start_method:
        Explicit multiprocessing start method; ``None`` picks ``fork``
        where available (cheap, copy-on-write payloads) and the platform
        default elsewhere.
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
    shm:
        Transport selector: ``False`` (default, honours ``REPRO_SHM``)
        pickles payloads and results; ``True`` publishes the grid and the
        result slabs into ``multiprocessing.shared_memory`` segments (see
        :mod:`repro.parallel.shm`) and fails the run with
        :class:`~repro.errors.WorkerPoolError` if publication is
        impossible; ``"auto"`` tries shared memory and falls back to
        pickling.  String forms (``"on"``/``"off"``/``"auto"``) are
        accepted for CLI/env symmetry.
    """

    workers: int = 1
    min_points: int = field(default_factory=config.parallel_min_points)
    chunk_pairs: int = 256
    start_method: Optional[str] = None
    max_shard_retries: int = field(default_factory=config.max_shard_retries)
    shard_timeout: Optional[float] = field(default_factory=config.shard_timeout)
    quarantine: bool = True
    max_pool_respawns: int = 2
    shm: object = field(default_factory=config.default_shm)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shm", _normalize_shm(self.shm))
        if int(self.workers) < 1:
            raise ParameterError(f"workers must be >= 1; got {self.workers}")
        if int(self.chunk_pairs) < 1:
            raise ParameterError(f"chunk_pairs must be >= 1; got {self.chunk_pairs}")
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


def _normalize_shm(value: object) -> object:
    """Canonicalise the ``shm`` knob to ``True`` / ``False`` / ``"auto"``."""
    if value is True or value is False:
        return value
    if value is None:
        return False
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    if text == "auto":
        return "auto"
    raise ParameterError(f"shm must be True/False/'auto'; got {value!r}")


WorkersLike = Union[None, int, ParallelConfig]


def with_transport(
    cfg: Optional[ParallelConfig], *, shm: object = None
) -> Optional[ParallelConfig]:
    """Apply a per-call ``shm=`` override to a resolved config.

    Folds the public entry points' ``shm=`` argument into the config
    produced by :func:`as_parallel_config` (a no-op on ``None`` — serial
    runs have no transport to configure, and an explicit ``shm=True`` with
    one worker is simply moot, matching how ``workers=1`` already ignores
    the rest of the config).
    """
    if cfg is None or shm is None:
        return cfg
    return replace(cfg, shm=shm)


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
    """Resolved worker count for one phase (1 means run serial)."""
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
    ``tasks``.  The scaling bench uses it to demonstrate the shm
    transport's ~zero steady-state copy traffic; not thread-safe (one
    measurement at a time, which is what a bench does).
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


# -------------------------------------------------------------- shm phases


#: Columns of the border-assignment output slab: border points touching
#: more than this many clusters (possible but vanishingly rare — it needs
#: >4 distinct clusters inside one point's eps-ball) overflow to a tiny
#: pickled result instead (see ``worker.borders_task``).
BORDER_SLAB_WIDTH = 4


class _ShmSession:
    """One phase's shared-memory wiring: the grid publication + an IO block.

    The IO block packs the phase's read-only inputs (fields prefixed
    ``in_``) and its preallocated output slabs (``out_``) into one
    segment.  The session owns only the IO block — the grid publication is
    cached on the grid and outlives the phase (unlinked by the pipeline /
    structure cache / atexit, whoever owns the grid).
    """

    def __init__(self, grid_block: shm_transport.SharedBlock,
                 io_block: shm_transport.SharedBlock) -> None:
        self.grid_block = grid_block
        self.io_block = io_block

    @property
    def shared_nbytes(self) -> int:
        return self.grid_block.nbytes + self.io_block.nbytes

    def out(self, name: str) -> np.ndarray:
        """A private copy of an output slab (safe to use after close)."""
        return np.array(self.io_block.arrays["out_" + name])

    def install(self, payload: Dict[str, object]) -> None:
        """Swap the pickled grid out of ``payload`` for segment headers."""
        payload.pop("grid", None)
        payload["grid_header"] = self.grid_block.header
        payload["shm_io"] = self.io_block.header
        payload["shm_shared_bytes"] = self.shared_nbytes

    def close(self) -> None:
        self.io_block.close()


def _open_shm_session(
    cfg: Optional[ParallelConfig],
    grid: Grid,
    phase: str,
    memory: Optional[MemoryBudget],
    inputs: Dict[str, np.ndarray],
    outputs: Dict[str, np.ndarray],
) -> Optional[_ShmSession]:
    """Publish the grid + the phase IO block, honouring the ``shm`` knob.

    Returns ``None`` for the pickled transport (knob off, or ``"auto"``
    hitting an infrastructure failure).  ``shm=True`` turns
    infrastructure failures into :class:`~repro.errors.WorkerPoolError`
    (degradable by ``run_resilient``); a memory-budget verdict always
    propagates as itself — refusing publication over budget is the budget
    working, not the transport failing.
    """
    if cfg is None or not cfg.shm:
        return None
    fields = {"in_" + name: arr for name, arr in inputs.items()}
    fields.update({"out_" + name: arr for name, arr in outputs.items()})
    try:
        grid_block = shm_transport.publish_grid(grid, memory=memory)
        io_block = shm_transport.SharedBlock.create(
            fields, meta={"phase": phase}, memory=memory, phase=f"shm-{phase}"
        )
    except MemoryBudgetExceeded:
        raise
    except Exception as exc:
        if cfg.shm == "auto":
            _log.warning(
                "shared-memory transport unavailable for phase %r (%s: %s); "
                "falling back to pickled transport",
                phase, type(exc).__name__, exc,
            )
            return None
        raise WorkerPoolError(
            f"shared-memory publication failed for phase {phase!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return _ShmSession(grid_block, io_block)


def _shard_ranges(shards: List[list]) -> List[Tuple[str, int, int]]:
    """Range-marker items for contiguous shards of the grid's cell order.

    ``shard_cells`` cuts the *sorted* cell list, and ``_group_by_rows``
    inserts cells in exactly that order — so every shard is a contiguous
    run of ``grid.cells.keys()`` and ships as ``(start, stop)`` instead of
    a pickled key list.  Workers resolve the range against their attached
    grid (``worker._resolve_item``).
    """
    out: List[Tuple[str, int, int]] = []
    start = 0
    for shard in shards:
        stop = start + len(shard)
        out.append((worker.SHM_RANGE, start, stop))
        start = stop
    return out


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

    ``consume`` must be order-independent and idempotent (all four phase
    merges are: index writes, dict updates, union-find unions, and in shm
    mode position-stable slab writes), which is what lets the supervisor
    keep completed work across pool respawns and tolerate a duplicate
    result from a torn-down pool.
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


def parallel_warm_neighbors(
    grid: Grid,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> None:
    """Build the grid's all-pairs adjacency map, sharded over the pool.

    On grids that use the all-pairs neighbour strategy this build is the
    dominant *serial* cost of a parallel run (every later phase only reads
    the finished map), so it gets its own fan-out: workers compute
    :meth:`~repro.grid.cells.Grid.adjacency_rows` for blocks of cells and
    the parent merges the rows and installs the map.  A no-op when the
    grid probes offsets instead, and serial below the fallback thresholds.

    Every later payload then carries the *warm* grid: under fork the
    workers of subsequent phases inherit the table copy-on-write; under
    spawn it rides along in the pickled payload — built once either way.
    """
    if not grid.needs_neighbor_warmup:
        return
    n_workers = effective_workers(cfg, len(grid.points), len(grid))
    if n_workers <= 1 or not grid.uses_allpairs_adjacency:
        grid.warm_neighbors()
        return
    _check_guards(deadline, memory, "grid")
    keys = list(grid.cells.keys())
    block = max(1, (len(keys) + n_workers * OVERSHARD - 1) // (n_workers * OVERSHARD))
    blocks = chunked(keys, block)
    payload = _base_payload(grid, "grid", deadline, memory)
    adjacency = {}
    _log.debug("adjacency warm-up: %d blocks over %d workers", len(blocks), n_workers)
    _fan_out(
        cfg, n_workers, payload, "adjacency", blocks,
        lambda rows: adjacency.update(rows),
        deadline=deadline, memory=memory,
    )
    grid.install_adjacency(adjacency)


def _pool(cfg: ParallelConfig, n_workers: int, payload: Dict[str, object]):
    method = cfg.start_method
    if method is None and "fork" in mp.get_all_start_methods():
        method = "fork"
    ctx = mp.get_context(method)
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
    parallel_warm_neighbors(grid, cfg, deadline=deadline, memory=memory)
    weights = {c: len(idx) for c, idx in grid.cells.items()}
    shards = shard_cells(grid.cells.keys(), n_workers * OVERSHARD, weights)
    payload = _base_payload(grid, "cores", deadline, memory)
    payload["min_pts"] = int(min_pts)
    n = len(grid.points)
    inputs: Dict[str, np.ndarray] = {}
    if known_core is not None:
        inputs["known_core"] = np.asarray(known_core, dtype=bool)
    session = _open_shm_session(
        cfg, grid, "cores", memory, inputs, {"core": np.zeros(n, dtype=bool)}
    )
    if session is None:
        if known_core is not None:
            payload["known_core"] = known_core
        items = shards
    else:
        session.install(payload)
        items = _shard_ranges(shards)
    core = np.zeros(n, dtype=bool)
    _log.debug("cores phase: %d shards over %d workers (shm=%s)",
               len(shards), n_workers, session is not None)

    def merge_cores(result) -> None:
        if session is not None:
            return  # flags landed in the shared slab; the ack is just a count
        idx, flags = result
        core[idx] = flags

    try:
        _fan_out(
            cfg, n_workers, payload, "cores", items, merge_cores,
            deadline=deadline, memory=memory,
        )
        if session is not None:
            core = session.out("core")
    finally:
        if session is not None:
            session.close()
    return core


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
    """Phase-3 exact connectivity: per-shard forests + boundary stitching.

    ``preunion`` seeds known same-component cell pairs
    (:func:`repro.core.edgekernel.apply_preunion_dense`) into both the parent's
    stitching forest and every worker's chunk-local forest, so seeded
    connectivity short-circuits BCP tests everywhere.  ``structures``
    seeds the per-cell search-structure cache of
    :func:`repro.core.cellgraph.exact_edge_predicate` (kd-trees / Voronoi
    diagrams) — the engine's warm-cache seam, mirroring the Lemma 5
    ``structures`` of :func:`parallel_approx_components`.
    """
    return _parallel_components(
        grid,
        core_mask,
        cfg,
        {
            "edge_rule": "exact",
            "bcp_strategy": bcp_strategy,
            "structures": structures,
        },
        deadline=deadline,
        memory=memory,
        preunion=preunion,
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
    """Phase-3 rho-approximate connectivity over the pool (or serial).

    ``preunion`` seeds known same-component pairs; ``structures`` seeds the
    per-cell Lemma 5 structure map (cells already built are not rebuilt —
    on the pooled path the map ships in the payload, so workers inherit the
    warm structures instead of rebuilding them lazily).
    """
    return _parallel_components(
        grid,
        core_mask,
        cfg,
        {
            "edge_rule": "approx",
            "rho": float(rho),
            "exact_leaf_size": exact_leaf_size,
            "structures": structures,
        },
        deadline=deadline,
        memory=memory,
        preunion=preunion,
    )


def _parallel_components(
    grid: Grid,
    core_mask: np.ndarray,
    cfg: Optional[ParallelConfig],
    edge_payload: Dict[str, object],
    *,
    deadline: Optional[Deadline],
    memory: Optional[MemoryBudget],
    preunion=None,
) -> Tuple[np.ndarray, int]:
    cells = core_cells(grid, core_mask)
    n_workers = effective_workers(cfg, len(grid.points), len(cells))
    if n_workers <= 1:
        if edge_payload["edge_rule"] == "exact":
            return exact_components(
                grid,
                core_mask,
                edge_payload["bcp_strategy"],
                deadline=deadline,
                preunion=preunion,
                structures=edge_payload.get("structures"),
            )
        return approx_components(
            grid,
            core_mask,
            edge_payload["rho"],
            edge_payload["exact_leaf_size"],
            deadline=deadline,
            preunion=preunion,
            structures=edge_payload.get("structures"),
        )
    _check_guards(deadline, memory, "components")
    parallel_warm_neighbors(grid, cfg, deadline=deadline, memory=memory)

    # The whole phase runs on dense cell ids (positions in the core-cell
    # insertion order) — the same ids the staged kernel uses inside the
    # workers' chunks.
    index = {c: t for t, c in enumerate(cells)}

    # Pairs already connected by the pre-union seed never need an edge
    # test anywhere — drop them before sharding so neither the payload nor
    # any worker carries them (a union inside one component is a no-op).
    keys, ii, jj = grid.neighbor_cell_pair_arrays(subset=cells.keys())
    if deadline is not None:
        deadline.tick()
    key_id = np.fromiter((index[c] for c in keys), dtype=np.int64, count=len(keys))
    if preunion and len(ii):
        seed_forest = DenseUnionFind(len(index))
        apply_preunion_dense(seed_forest, index, preunion)
        seed_root = seed_forest.roots()[key_id]
        keep = seed_root[ii] != seed_root[jj]
        ii, jj = ii[keep], jj[keep]
    weights = {c: len(idx) for c, idx in cells.items()}
    shards = shard_cells(cells.keys(), n_workers, weights)
    owner = assign_shards(shards)

    payload = _base_payload(grid, "components", deadline, memory)
    payload.update(edge_payload)
    if preunion:
        payload["preunion"] = list(preunion)

    # The stitching pass: one forest over *all* core cells, in the same
    # insertion order the serial path uses, so component labels (assigned
    # by first appearance in id order) come out identical.
    uf = DenseUnionFind(len(index))
    apply_preunion_dense(uf, index, preunion)

    session = None
    if cfg.shm:
        # Task-ordered index form of the split_pairs layout: per-shard
        # intra blocks first, then boundary chunks, each a contiguous
        # range of the reordered (pair_i, pair_j) arrays — the same pairs
        # in the same orientation and emission order as the pickled path.
        owner_of = np.fromiter(
            (owner[c] for c in keys), dtype=np.int64, count=len(keys)
        )
        si, sj = owner_of[ii], owner_of[jj]
        parts: List[np.ndarray] = []
        ranges: List[Tuple[int, int]] = []
        pos = 0
        for s in range(len(shards)):
            sel = np.nonzero((si == s) & (sj == s))[0]
            if len(sel):
                parts.append(sel)
                ranges.append((pos, pos + len(sel)))
                pos += len(sel)
        boundary_sel = np.nonzero(si != sj)[0]
        for start in range(0, len(boundary_sel), int(cfg.chunk_pairs)):
            chunk = boundary_sel[start:start + int(cfg.chunk_pairs)]
            parts.append(chunk)
            ranges.append((pos, pos + len(chunk)))
            pos += len(chunk)
        order = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        n_pairs = len(order)
        session = _open_shm_session(
            cfg, grid, "components", memory,
            {
                "core_mask": np.asarray(core_mask, dtype=bool),
                "pair_i": ii[order],
                "pair_j": jj[order],
            },
            {
                "edge_i": np.full(n_pairs, -1, dtype=np.int64),
                "edge_j": np.full(n_pairs, -1, dtype=np.int64),
            },
        )

    if session is not None:
        session.install(payload)
        tasks: List[object] = [
            (worker.SHM_RANGE, start, stop) for start, stop in ranges
        ]
        _log.debug(
            "components phase: %d pairs in %d shm tasks over %d workers",
            n_pairs, len(tasks), n_workers,
        )
        consume = lambda acked: None  # noqa: E731 - unions land in the slab
    else:
        payload["core_mask"] = core_mask
        pairs = [(keys[i], keys[j]) for i, j in zip(ii.tolist(), jj.tolist())]
        intra, boundary = split_pairs(pairs, owner, len(shards))
        tasks = [block for block in intra if block]
        tasks.extend(chunked(boundary, cfg.chunk_pairs))
        _log.debug(
            "components phase: %d intra lists + %d boundary pairs in %d tasks "
            "over %d workers",
            sum(len(b) for b in intra),
            len(boundary),
            len(tasks),
            n_workers,
        )

        def consume(united) -> None:
            for c1, c2 in united:
                uf.union(index[c1], index[c2])

    try:
        if tasks:
            _fan_out(
                cfg, n_workers, payload, "edges", tasks, consume,
                deadline=deadline, memory=memory,
            )
        if session is not None:
            edge_i = session.out("edge_i")
            edge_j = session.out("edge_j")
            hit = np.nonzero(edge_i >= 0)[0]
            for a, b in zip(
                key_id[edge_i[hit]].tolist(), key_id[edge_j[hit]].tolist()
            ):
                uf.union(a, b)
    finally:
        if session is not None:
            session.close()
    return labels_from_dense(grid, cells, uf)


def parallel_assign_borders(
    grid: Grid,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    cfg: Optional[ParallelConfig],
    *,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
) -> Dict[int, Tuple[int, ...]]:
    """Phase-4 border assignment, sharded over the pool (or serial)."""
    n_workers = effective_workers(cfg, len(grid.points), len(grid))
    if n_workers <= 1:
        return assign_borders(grid, core_mask, core_labels, deadline=deadline)
    _check_guards(deadline, memory, "borders")
    parallel_warm_neighbors(grid, cfg, deadline=deadline, memory=memory)
    weights = {c: len(idx) for c, idx in grid.cells.items()}
    shards = shard_cells(grid.cells.keys(), n_workers * OVERSHARD, weights)
    payload = _base_payload(grid, "borders", deadline, memory)
    n = len(grid.points)
    session = _open_shm_session(
        cfg, grid, "borders", memory,
        {
            "core_mask": np.asarray(core_mask, dtype=bool),
            "core_labels": np.asarray(core_labels, dtype=np.int64),
        },
        {
            "border_count": np.zeros(n, dtype=np.int64),
            "border_labels": np.zeros((n, BORDER_SLAB_WIDTH), dtype=np.int64),
        },
    )
    if session is None:
        payload["core_mask"] = core_mask
        payload["core_labels"] = core_labels
        items = shards
    else:
        session.install(payload)
        items = _shard_ranges(shards)
    out: Dict[int, Tuple[int, ...]] = {}
    _log.debug("borders phase: %d shards over %d workers (shm=%s)",
               len(shards), n_workers, session is not None)
    try:
        # In shm mode each result is only the rare slab-overflow remainder
        # (a border point touching > BORDER_SLAB_WIDTH clusters); the dict
        # update handles both modes.
        _fan_out(
            cfg, n_workers, payload, "borders", items,
            lambda result: out.update(result),
            deadline=deadline, memory=memory,
        )
        if session is not None:
            counts = session.out("border_count")
            labels = session.out("border_labels")
            for point in np.nonzero(counts > 0)[0].tolist():
                out[point] = tuple(labels[point, : counts[point]].tolist())
    finally:
        if session is not None:
            session.close()
    return out
