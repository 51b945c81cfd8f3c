"""Core + border phases: the staged batched kernels vs the per-cell loops.

The first and last hot phases of the Section 2.2 grid pipeline — core
labeling (``|B(p, eps)| >= MinPts``) and border assignment (every cluster
with a core point within ``eps``) — pay one Python iteration plus several
small numpy calls per cell in the reference loops
(``tests/oracles/loops.py``), which dominates
wall-clock on seed-spreader-style grids with tens of thousands of
near-singleton cells.  The staged kernels
(:mod:`repro.core.labeling`, :mod:`repro.core.border`) settle both phases with vectorised,
size-classed tiles.  This bench measures both kernels' wall-clock for the
two phases on an identical workload — clustered seed-spreader points
blended with uniform background noise, so the grid mixes dense
quick-accept cells with a long tail of sparse cells — and asserts:

* the staged kernels are at least :data:`TARGET_SPEEDUP` times faster on
  the **combined** core + border phase time;
* the results are **byte-identical** between the kernels on the serial
  path, the parallel cores path (workers > 1), and
  a ``known_core``-carried (sweep) run — the differential oracle riding
  along with every measurement.

Run standalone::

    python -m benchmarks.bench_core_phase              # full config
    python -m benchmarks.bench_core_phase --smoke      # CI-sized
    python -m benchmarks.bench_core_phase --json BENCH_core.json

or via pytest like the other benches (the pytest path uses the CI-sized
workload).
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from repro.core import cellgraph as cg
from repro.core.border import assign_borders
from repro.core.labeling import label_cores
from repro.data import seed_spreader
from repro.grid import counters
from repro.grid.cells import Grid
from repro.parallel.executor import ParallelConfig, parallel_label_cores

from tests.oracles import loops

from . import config as cfg

#: Required combined core+border speedup of the staged kernels over the
#: per-cell loops at every config — the staged tiles win even at smoke
#: size because they remove per-cell Python overhead, not just
#: asymptotic work.
TARGET_SPEEDUP = 3.0

#: (name, clustered points, noise points, d, eps, min_pts).
FULL_CONFIG = ("full", 15_000, 15_000, 2, 1500.0, 10)
SMOKE_CONFIG = ("smoke", 6_000, 6_000, 2, 1500.0, 10)

#: Noise-domain side length at ``FULL_CONFIG`` scale; smaller configs
#: shrink the domain with sqrt(n) so the background density — and with it
#: the sparse-cell tail feeding stage B — stays constant across configs.
_NOISE_SIDE = 100_000.0
_NOISE_REF = 15_000


def _workload(n_clustered: int, n_noise: int, d: int, eps: float):
    """Blended workload with a warm grid (adjacency charged up front)."""
    rng = np.random.default_rng(cfg.SEED)
    clustered = seed_spreader(n_clustered, d, seed=cfg.SEED).points
    side = _NOISE_SIDE * math.sqrt(n_noise / _NOISE_REF)
    noise = rng.uniform(0.0, side, size=(n_noise, d))
    points = np.vstack([clustered, noise])
    grid = Grid(points, eps)
    grid.warm_neighbors()
    return grid


def _timed(runner):
    t0 = time.perf_counter()
    result = runner()
    return result, time.perf_counter() - t0


def measure(config, report=print):
    """Staged-vs-loop comparison on one blended workload."""
    name, n_clustered, n_noise, d, eps, min_pts = config
    grid = _workload(n_clustered, n_noise, d, eps)
    report(
        f"core+border phases — SS{d}D + noise, n={len(grid.points)}, "
        f"eps={eps:g}, min_pts={min_pts}, {len(grid.cells)} cells [{name}]"
    )

    # Untimed warm-up of both kernels: charges one-time costs (BLAS
    # initialisation, the grid's SoA cache, allocator growth) to neither
    # side, so the timings compare steady-state kernel work.
    label_cores(grid, min_pts)
    loops.label_cores(grid, min_pts)

    before = counters.snapshot()
    core_staged, t_core_staged = _timed(
        lambda: label_cores(grid, min_pts)
    )
    core_funnel = {
        k: v for k, v in counters.delta_since(before).items()
        if k.startswith("core_")
    }
    core_loop, t_core_loop = _timed(
        lambda: loops.label_cores(grid, min_pts)
    )
    labels, n_clusters = cg.exact_components(grid, core_loop)
    before = counters.snapshot()
    b_staged, t_border_staged = _timed(
        lambda: assign_borders(grid, core_loop, labels)
    )
    border_funnel = {
        k: v for k, v in counters.delta_since(before).items()
        if k.startswith("border_")
    }
    b_loop, t_border_loop = _timed(
        lambda: loops.assign_borders(grid, core_loop, labels)
    )

    t_staged = t_core_staged + t_border_staged
    t_loop = t_core_loop + t_border_loop
    core_speedup = t_core_loop / t_core_staged if t_core_staged > 0 else float("inf")
    border_speedup = (
        t_border_loop / t_border_staged if t_border_staged > 0 else float("inf")
    )
    combined_speedup = t_loop / t_staged if t_staged > 0 else float("inf")
    report(
        f"  core:     loop {t_core_loop:.3f} s, staged {t_core_staged:.3f} s "
        f"(speedup {core_speedup:.2f}x)"
    )
    report(
        f"  border:   loop {t_border_loop:.3f} s, staged {t_border_staged:.3f} s "
        f"(speedup {border_speedup:.2f}x)"
    )
    report(
        f"  combined: loop {t_loop:.3f} s, staged {t_staged:.3f} s "
        f"(speedup {combined_speedup:.2f}x)"
    )
    total = max(1, core_funnel.get("core_points_total", 0))
    report(
        "  funnel: "
        f"{core_funnel.get('core_dense_points', 0) / total:.1%} dense-accept, "
        f"{core_funnel.get('core_counted_points', 0) / total:.1%} counted, "
        f"{core_funnel.get('core_retired_points', 0) / total:.1%} retired early; "
        f"{border_funnel.get('border_assigned', 0)} borders assigned, "
        f"{border_funnel.get('border_noise', 0)} noise"
    )

    # Differential oracle riding along with every measurement: results
    # must be byte-identical between kernels on the serial path...
    assert np.array_equal(core_staged, core_loop), "serial core mask drifted"
    assert b_staged == b_loop, "serial border assignment drifted"
    # ...on the parallel cores path (workers > 1; staged kernel inside
    # shards; borders always run in the parent)...
    pcfg = ParallelConfig(workers=2, min_points=0)
    par_core = parallel_label_cores(grid, min_pts, pcfg)
    assert np.array_equal(par_core, core_loop), "parallel cores drifted"
    # ...and on a known_core-carried run (the sweep's monotone hint).
    small = Grid(grid.points, eps * 0.6)
    hint = label_cores(small, min_pts)
    carried = label_cores(grid, min_pts, known_core=hint)
    assert np.array_equal(carried, core_loop), "known_core-carried mask drifted"
    report("  oracle: serial / parallel cores / carry byte-identical")

    return {
        "config": name,
        "n": int(len(grid.points)),
        "d": d,
        "eps": eps,
        "min_pts": min_pts,
        "grid_cells": int(len(grid.cells)),
        "clusters": int(n_clusters),
        "core_loop_seconds": t_core_loop,
        "core_staged_seconds": t_core_staged,
        "core_speedup": core_speedup,
        "border_loop_seconds": t_border_loop,
        "border_staged_seconds": t_border_staged,
        "border_speedup": border_speedup,
        "combined_loop_seconds": t_loop,
        "combined_staged_seconds": t_staged,
        "combined_speedup": combined_speedup,
        "core_funnel": core_funnel,
        "border_funnel": border_funnel,
        "byte_identical": True,
    }


def test_core_phase_staged_vs_loop(report, benchmark):
    """CI smoke: the staged kernels beat the loops with identical results."""
    stats = measure(SMOKE_CONFIG, report)
    assert stats["combined_speedup"] >= TARGET_SPEEDUP, (
        f"staged core+border phases only {stats['combined_speedup']:.2f}x faster "
        f"(target {TARGET_SPEEDUP}x)"
    )
    grid = _workload(*SMOKE_CONFIG[1:5])
    min_pts = SMOKE_CONFIG[5]
    benchmark(lambda: label_cores(grid, min_pts))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI-sized config instead of the full one")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the measurements to PATH as JSON")
    args = parser.parse_args(argv)
    config = SMOKE_CONFIG if args.smoke else FULL_CONFIG
    stats = measure(config)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
        print(f"wrote {args.json}")
    ok = stats["combined_speedup"] >= TARGET_SPEEDUP
    if not ok:
        print(
            f"FAIL: combined core+border speedup "
            f"{stats['combined_speedup']:.2f}x below the {TARGET_SPEEDUP}x target"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
