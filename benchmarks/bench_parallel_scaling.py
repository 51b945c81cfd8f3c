"""Parallel scaling of the sharded grid pipeline (Figure-11 style).

Times the exact grid algorithm on SS3D seed-spreader workloads at 1, 2 and
4 workers and reports the speedup over the serial run.  Two configs:

* ``small`` — the paper-default Figure-11 config (n = ``cfg.DEFAULT_N``,
  eps = ``cfg.DEFAULT_EPS``).  Reported only: the serial run takes tens of
  milliseconds, well under the pool's own startup cost, so the honest
  speedup is < 1 on *any* machine — this row documents why the executor
  has a serial-fallback threshold at all.
* ``large`` — n = 8x the default at eps = 100 (cell side ~58, >10k
  occupied cells): several seconds of BCP-dominated work where the pool
  can amortise.  On a host with >= 4 CPUs, 4 workers must reach >= 1.7x;
  on smaller boxes the speedup is recorded but not asserted — a 1-core
  container physically cannot speed up, and a failing assert there would
  only measure the hardware.

Either way, every parallel labeling is asserted *identical* to the serial
one — a speedup that changes the answer is worthless.  A separate
measurement reports the bytes a 2-worker run pickles across the pool's
pipes (``--smoke`` runs only that, at a reduced n).

Run standalone with ``python -m benchmarks.bench_parallel_scaling`` or via
pytest like the other benches.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro import dbscan
from repro.data import seed_spreader
from repro.parallel import ParallelConfig, track_copy_bytes

from . import config as cfg

#: Worker counts swept (1 = the serial baseline).
WORKER_SWEEP = (1, 2, 4)

#: Required speedup at 4 workers on the large config (>= 4-CPU hosts only).
TARGET_SPEEDUP = 1.7

#: (name, n, eps, repeats) — repeats are best-of; pools cold-start each run.
CONFIGS = (
    ("small", cfg.DEFAULT_N, cfg.DEFAULT_EPS, 3),
    ("large", cfg.scaled(64000), 100.0, 2),
)


def _time_run(points, eps, workers, repeats):
    best = float("inf")
    result = None
    par = workers if workers == 1 else ParallelConfig(workers=workers, min_points=0)
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = dbscan(points, eps, cfg.MINPTS, workers=par)
        best = min(best, time.perf_counter() - t0)
    return best, result


def measure_scaling(report=print):
    d = 3
    all_speedups = {}
    report(f"parallel scaling — SS{d}D, MinPts={cfg.MINPTS}, "
           f"host cpus={os.cpu_count()}")
    for name, n, eps, repeats in CONFIGS:
        points = seed_spreader(n, d, seed=cfg.SEED + d).points
        serial_time, serial = _time_run(points, eps, 1, repeats)
        report(f"  [{name}] n={len(points)}, eps={eps:g}, "
               f"{serial.meta['grid_cells']} cells, best of {repeats}:")
        report(f"    workers=1: {serial_time:8.3f} s  (baseline, "
               f"{serial.n_clusters} clusters)")
        speedups = {1: 1.0}
        for workers in WORKER_SWEEP[1:]:
            elapsed, result = _time_run(points, eps, workers, repeats)
            assert np.array_equal(result.labels, serial.labels), (
                f"[{name}] parallel run at {workers} workers changed the labeling"
            )
            assert np.array_equal(result.core_mask, serial.core_mask)
            speedups[workers] = serial_time / elapsed
            report(f"    workers={workers}: {elapsed:8.3f} s  "
                   f"(speedup {speedups[workers]:.2f}x)")
        all_speedups[name] = speedups
    return all_speedups


def measure_copy_bytes(report=print, n=None, eps=None):
    """Per-run pickled transport bytes of a 2-worker run.

    The :func:`~repro.parallel.track_copy_bytes` ledger counts every byte
    that crosses the pipe (task items out, results back — the fork-
    inherited initializer payload is shared, not copied).  Reported, not
    asserted; the labeling is asserted identical to the serial run.
    """
    d = 3
    n = cfg.scaled(8000) if n is None else n
    eps = cfg.DEFAULT_EPS if eps is None else eps
    points = seed_spreader(n, d, seed=cfg.SEED + d).points
    serial = dbscan(points, eps, cfg.MINPTS)
    report(f"copy bytes per run — SS{d}D n={len(points)}, eps={eps:g}, "
           f"MinPts={cfg.MINPTS}, workers=2")
    out = {"n": int(len(points)), "eps": float(eps), "workers": 2}
    with track_copy_bytes() as ledger:
        result = dbscan(
            points, eps, cfg.MINPTS,
            workers=ParallelConfig(workers=2, min_points=0),
        )
    assert np.array_equal(result.labels, serial.labels), (
        "parallel run changed the labeling"
    )
    total = ledger["task_bytes"] + ledger["result_bytes"]
    out.update(
        task_bytes=int(ledger["task_bytes"]),
        result_bytes=int(ledger["result_bytes"]),
        total_bytes=int(total),
        tasks=int(ledger["tasks"]),
    )
    report(f"    pickled: {total:12,d} B  "
           f"({ledger['task_bytes']:,d} out + {ledger['result_bytes']:,d} "
           f"back over {ledger['tasks']} tasks)")
    return out


def test_parallel_scaling(report):
    speedups = measure_scaling(report)
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert speedups["large"][4] >= TARGET_SPEEDUP, (
            f"4-worker speedup {speedups['large'][4]:.2f}x below the "
            f"{TARGET_SPEEDUP}x target on a {cpus}-cpu host"
        )
    else:
        report(f"  ({cpus} cpu(s): {TARGET_SPEEDUP}x target not asserted)")


def test_copy_bytes(report):
    measure_copy_bytes(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="copy-bytes measurement only, at a reduced n "
                             "(CI-friendly; skips the wall-clock sweep)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the copy-bytes report as JSON")
    args = parser.parse_args()
    ok = True
    if args.smoke:
        copy_report = measure_copy_bytes(n=cfg.scaled(2000))
    else:
        speedups = measure_scaling()
        cpus = os.cpu_count() or 1
        ok = cpus < 4 or speedups["large"][4] >= TARGET_SPEEDUP
        copy_report = measure_copy_bytes()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(copy_report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    raise SystemExit(0 if ok else 1)
