"""Multiprocessing execution layer for the shared grid pipeline.

The paper's Theorem 2 decomposition has three shardable phases: core
determination is per-cell, the core-cell graph is per-edge, and border
assignment is per-cell again.  Only core labeling pays for a worker pool
(measured in ``docs/PARALLEL.md``, "Phase by phase"), so this package
shards the grid into spatially contiguous cell blocks, fans core labeling
out over a supervised pool and merges the flags by index writes; the
other phases run serially in the parent.  The output is *identical* to
the serial pipeline (``tests/test_parallel_equivalence.py`` is the
differential oracle).

Public entry points accept ``workers=`` (an int or a
:class:`ParallelConfig`); ``repro-dbscan --workers N`` exposes it on the
command line, and the ``REPRO_WORKERS`` environment variable sets the
fleet-wide default.  Workers inherit the grid under ``fork`` and return
their shard results pickled (see ``docs/PARALLEL.md``, "Transport").
"""

from repro.parallel.executor import (
    OVERSHARD,
    ParallelConfig,
    as_parallel_config,
    effective_workers,
    leaked_segments,
    parallel_approx_components,
    parallel_assign_borders,
    parallel_exact_components,
    parallel_label_cores,
    parallel_warm_neighbors,
    track_copy_bytes,
    unpublish_grid,
)
from repro.parallel.shard import shard_cells
from repro.parallel.supervisor import (
    SupervisorStats,
    collect_stats,
    current_stats,
    retry_transient,
    run_supervised,
)

__all__ = [
    "ParallelConfig",
    "as_parallel_config",
    "effective_workers",
    "parallel_label_cores",
    "parallel_exact_components",
    "parallel_approx_components",
    "parallel_assign_borders",
    "parallel_warm_neighbors",
    "shard_cells",
    "OVERSHARD",
    "track_copy_bytes",
    "unpublish_grid",
    "leaked_segments",
    "SupervisorStats",
    "collect_stats",
    "current_stats",
    "retry_transient",
    "run_supervised",
]
