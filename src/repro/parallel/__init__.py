"""Multiprocessing execution layer for the shared grid pipeline.

The paper's Theorem 2 decomposition is embarrassingly parallel: core
determination is per-cell, the core-cell graph is per-edge, and border
assignment is per-cell again.  This package shards the grid into
spatially contiguous cell blocks, fans the three data-parallel phases out
over a worker pool, and stitches per-shard union-find forests back into
the global component labeling — producing output *identical* to the
serial pipeline (see ``docs/PARALLEL.md`` for the correctness argument
and ``tests/test_parallel_equivalence.py`` for the differential oracle).

Public entry points accept ``workers=`` (an int or a
:class:`ParallelConfig`); ``repro-dbscan --workers N`` exposes it on the
command line, and the ``REPRO_WORKERS`` environment variable sets the
fleet-wide default.  ``ParallelConfig(shm=...)`` (CLI ``--shm``, env
``REPRO_SHM``) selects the zero-copy shared-memory transport of
:mod:`repro.parallel.shm`.
"""

from repro.parallel.executor import (
    BORDER_SLAB_WIDTH,
    OVERSHARD,
    ParallelConfig,
    as_parallel_config,
    effective_workers,
    parallel_approx_components,
    parallel_assign_borders,
    parallel_exact_components,
    parallel_label_cores,
    parallel_warm_neighbors,
    track_copy_bytes,
    with_transport,
)
from repro.parallel.shm import (
    SharedBlock,
    attach_grid,
    leaked_segments,
    publish_grid,
    unpublish_grid,
)
from repro.parallel.shard import assign_shards, chunked, shard_cells, split_pairs
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
    "assign_shards",
    "split_pairs",
    "chunked",
    "OVERSHARD",
    "BORDER_SLAB_WIDTH",
    "with_transport",
    "track_copy_bytes",
    "SharedBlock",
    "publish_grid",
    "unpublish_grid",
    "attach_grid",
    "leaked_segments",
    "SupervisorStats",
    "collect_stats",
    "current_stats",
    "retry_transient",
    "run_supervised",
]
