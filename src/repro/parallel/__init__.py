"""Multiprocessing execution layer for the shared grid pipeline.

The paper's Theorem 2 decomposition has three shardable phases: core
determination is per-cell, the core-cell graph is per-edge, and border
assignment is per-cell again.  Only core labeling pays for a worker pool
(measured in ``docs/PARALLEL.md``, "Phase by phase"), so this package
plans core labeling in the parent, fans the count of the plan's live-cell
ranges out over supervised worker processes when enough queries are left
open, and merges the core indices by index writes; the other phases run
serially in the parent.  On a worker fault the parent tears the workers
down and counts the unfinished ranges itself (:mod:`repro.parallel.supervisor`).  The output is *identical* to the serial pipeline
(``tests/test_parallel_equivalence.py`` is the differential oracle).

Public entry points accept ``workers=`` (an int or a
:class:`ParallelConfig`); ``repro-dbscan --workers N`` exposes it on the
command line, and the ``REPRO_WORKERS`` environment variable sets the
fleet-wide default.  Workers inherit the grid under ``fork`` and return
their range results pickled (see ``docs/PARALLEL.md``, "Transport").
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
from repro.parallel.supervisor import (
    SupervisorStats,
    collect_stats,
    current_stats,
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
    "OVERSHARD",
    "track_copy_bytes",
    "unpublish_grid",
    "leaked_segments",
    "SupervisorStats",
    "collect_stats",
    "current_stats",
    "run_supervised",
]
