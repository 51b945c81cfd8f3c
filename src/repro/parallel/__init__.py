"""In-process execution layer for the shared grid pipeline.

The paper's Theorem 2 decomposition has three shardable phases: core
determination is per-cell, the core-cell graph is per-edge, and border
assignment is per-cell again.  Only core labeling gains from a fan-out
(measured in ``docs/PARALLEL.md``, "Phase by phase"), so this package
plans core labeling in the calling thread, counts the plan's live-cell
ranges on a per-call thread pool when enough queries are left open, and
merges the core indices by index writes; the other phases run serially.
The output is *identical* to the serial pipeline
(``tests/test_parallel_equivalence.py`` is the differential oracle).

Public entry points accept ``workers=`` (an int or a
:class:`ParallelConfig`); ``repro-dbscan --workers N`` exposes it on the
command line, and the ``REPRO_WORKERS`` environment variable sets the
fleet-wide default.
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
]
