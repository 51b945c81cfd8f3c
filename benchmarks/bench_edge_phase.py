"""Edge phase: the staged batched kernel vs the per-pair reference loop.

The component phase of the grid algorithms (Lemma 1's core-cell graph)
must settle every eps-neighbouring pair of core cells.  The staged kernel
(:mod:`repro.core.edgekernel`) resolves most pairs with vectorised
quick-accept / quick-reject certificates and schedules the few survivors
cheapest-first under a spanning-forest early exit; the reference loop
(``tests/oracles/loops.py``) pays a full per-pair decision.  This bench measures
the edge-phase wall-clock of both kernels on an identical workload —
clustered seed-spreader points blended with uniform background noise, so
the candidate pairs span dense accepts, far rejects and borderline
survivors — and asserts:

* the staged kernel is at least :data:`TARGET_SPEEDUP` times faster on
  the exact *and* the approximate edge rule;
* labels are **byte-identical** between the kernels on the serial path
  and on a preunion-seeded (sweep-carry) run — the differential oracle
  riding along with every measurement.  (The edge phase always runs in
  the parent, so a ``workers > 1`` run executes this same serial path.)

Run standalone::

    python -m benchmarks.bench_edge_phase              # full config
    python -m benchmarks.bench_edge_phase --smoke      # CI-sized
    python -m benchmarks.bench_edge_phase --json BENCH_edge.json

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
from repro.core.labeling import label_cores
from repro.data import seed_spreader
from repro.grid import counters
from repro.grid.cells import Grid

from tests.oracles import loops
from tests.oracles.adjacency import neighbor_cell_pair_arrays

from . import config as cfg

#: Required edge-phase speedup of the staged kernel over the per-pair
#: loop, for both edge rules, at every config — the vectorised stages
#: win even at smoke size because they remove per-pair Python overhead,
#: not just asymptotic work.
TARGET_SPEEDUP = 3.0

#: (name, clustered points, noise points, d, eps, min_pts, rho).
FULL_CONFIG = ("full", 15_000, 15_000, 2, 1500.0, 10, 0.001)
SMOKE_CONFIG = ("smoke", 6_000, 6_000, 2, 1500.0, 10, 0.001)

#: Noise-domain side length at ``FULL_CONFIG`` scale; smaller configs
#: shrink the domain with sqrt(n) so the background density — and with it
#: the mix of borderline core cells feeding the survivor stage — stays
#: constant across configs.
_NOISE_SIDE = 100_000.0
_NOISE_REF = 15_000


def _workload(n_clustered: int, n_noise: int, d: int, eps: float, min_pts: int):
    """Blended workload + shared phase inputs (grid, warm adjacency, cores)."""
    rng = np.random.default_rng(cfg.SEED)
    clustered = seed_spreader(n_clustered, d, seed=cfg.SEED).points
    side = _NOISE_SIDE * math.sqrt(n_noise / _NOISE_REF)
    noise = rng.uniform(0.0, side, size=(n_noise, d))
    points = np.vstack([clustered, noise])
    grid = Grid(points, eps)
    grid.warm_neighbors()
    core = label_cores(grid, min_pts)
    return grid, core


def _timed_components(runner):
    t0 = time.perf_counter()
    result = runner()
    return result, time.perf_counter() - t0


def measure(config, report=print):
    """Staged-vs-loop comparison on one blended workload."""
    name, n_clustered, n_noise, d, eps, min_pts, rho = config
    grid, core = _workload(n_clustered, n_noise, d, eps, min_pts)
    cells = cg.core_cells(grid, core)
    ii, _, _ = neighbor_cell_pair_arrays(grid, subset=cells.ids)
    report(
        f"edge phase — SS{d}D + noise, n={len(grid.points)}, eps={eps:g}, "
        f"min_pts={min_pts}, {len(cells)} core cells, "
        f"{len(ii)} candidate pairs [{name}]"
    )

    before = counters.snapshot()
    exact_staged, t_exact_staged = _timed_components(
        lambda: cg.exact_components(grid, core)
    )
    funnel = {
        k: v for k, v in counters.delta_since(before).items()
        if k.startswith("edge_")
    }
    approx_staged, t_approx_staged = _timed_components(
        lambda: cg.approx_components(grid, core, rho)
    )
    exact_loop, t_exact_loop = _timed_components(
        lambda: loops.exact_components(grid, core)
    )
    approx_loop, t_approx_loop = _timed_components(
        lambda: loops.approx_components(grid, core, rho)
    )

    exact_speedup = t_exact_loop / t_exact_staged if t_exact_staged > 0 else float("inf")
    approx_speedup = t_approx_loop / t_approx_staged if t_approx_staged > 0 else float("inf")
    report(
        f"  exact:  loop {t_exact_loop:.3f} s, staged {t_exact_staged:.3f} s "
        f"(speedup {exact_speedup:.2f}x)"
    )
    report(
        f"  approx: loop {t_approx_loop:.3f} s, staged {t_approx_staged:.3f} s "
        f"(speedup {approx_speedup:.2f}x)"
    )
    total = max(1, funnel.get("edge_pairs_total", 0))
    report(
        "  funnel: "
        f"{funnel.get('edge_quick_accept', 0) / total:.1%} quick-accept, "
        f"{funnel.get('edge_quick_reject', 0) / total:.1%} quick-reject, "
        f"{funnel.get('edge_predicate_tests', 0) / total:.2%} per-pair tests"
    )

    # Differential oracle riding along with every measurement: labels must
    # be byte-identical between kernels on the serial path...
    assert np.array_equal(exact_staged[0], exact_loop[0]), "serial exact labels drifted"
    assert exact_staged[1] == exact_loop[1]
    assert np.array_equal(approx_staged[0], approx_loop[0]), "serial approx labels drifted"
    assert approx_staged[1] == approx_loop[1]
    # ...and on a preunion-seeded run (the sweep's carry).
    seed = loops.edge_list_exact(grid, core)[::2]
    seeded, _ = _timed_components(
        lambda: cg.exact_components(grid, core, preunion=seed)
    )
    assert np.array_equal(seeded[0], exact_loop[0]), "preunion-seeded labels drifted"
    report("  oracle: serial / preunion labels byte-identical")

    return {
        "config": name,
        "n": int(len(grid.points)),
        "d": d,
        "eps": eps,
        "min_pts": min_pts,
        "rho": rho,
        "core_cells": int(len(cells)),
        "candidate_pairs": int(len(ii)),
        "exact_loop_seconds": t_exact_loop,
        "exact_staged_seconds": t_exact_staged,
        "exact_speedup": exact_speedup,
        "approx_loop_seconds": t_approx_loop,
        "approx_staged_seconds": t_approx_staged,
        "approx_speedup": approx_speedup,
        "funnel": funnel,
        "byte_identical": True,
    }


def test_edge_phase_staged_vs_loop(report, benchmark):
    """CI smoke: the staged kernel beats the loop with identical labels."""
    stats = measure(SMOKE_CONFIG, report)
    assert stats["exact_speedup"] >= TARGET_SPEEDUP, (
        f"staged exact edge phase only {stats['exact_speedup']:.2f}x faster "
        f"(target {TARGET_SPEEDUP}x)"
    )
    assert stats["approx_speedup"] >= TARGET_SPEEDUP, (
        f"staged approx edge phase only {stats['approx_speedup']:.2f}x faster "
        f"(target {TARGET_SPEEDUP}x)"
    )
    grid, core = _workload(*SMOKE_CONFIG[1:6])
    benchmark(lambda: cg.exact_components(grid, core))


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
    ok = (
        stats["exact_speedup"] >= TARGET_SPEEDUP
        and stats["approx_speedup"] >= TARGET_SPEEDUP
    )
    if not ok:
        print(
            f"FAIL: edge-phase speedup below the {TARGET_SPEEDUP}x target "
            f"(exact {stats['exact_speedup']:.2f}x, "
            f"approx {stats['approx_speedup']:.2f}x)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
