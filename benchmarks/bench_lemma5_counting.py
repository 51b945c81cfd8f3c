"""Lemma 5: reference hierarchy vs the flat batched kernel.

Two claims are measured here:

* **Lemma 5 complexity** (reference structure,
  ``tests/oracles/counting.py``): O(n) expected construction
  and O(1) expected query for fixed eps, rho, d — build time grows
  ~linearly over a doubling-n sweep, per-query time stays flat, and the
  counting contract is re-verified on every sampled query.
* **Kernel speedup** (:class:`~repro.grid.FlatHierarchy`): the batched
  structure-of-arrays traversal must answer the same query workload at
  least :data:`TARGET_BATCH_SPEEDUP` times faster than the per-point
  reference path at the full config (n = 50k, d = 3), with every answer
  inside the brute-force sandwich and equal to the reference wherever the
  contract is exact.

Run standalone::

    python -m benchmarks.bench_lemma5_counting              # full config
    python -m benchmarks.bench_lemma5_counting --smoke      # CI-sized
    python -m benchmarks.bench_lemma5_counting --json BENCH_lemma5.json

or via pytest like the other benches (the pytest path uses CI-sized
workloads; the >= 5x target is asserted only on the full config).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.data import seed_spreader
from repro.evaluation import format_table
from repro.evaluation.timing import timed
from repro.geometry import distance as dm
from repro.grid.hierarchy import FlatHierarchy
from tests.oracles.counting import CountingHierarchy

from . import config as cfg

EPS = 5000.0
RHO = 0.001
QUERIES = 200

#: Required speedup of flat batched queries over the per-point reference
#: path (full config only; at smoke size the fixed per-batch overheads are
#: a visible fraction of the run, so only a softer bar is honest there).
TARGET_BATCH_SPEEDUP = 5.0
SMOKE_BATCH_SPEEDUP = 2.0

#: (name, n, d, number of batched queries).
FULL_CONFIG = ("full", 50_000, 3, 4000)
SMOKE_CONFIG = ("smoke", 8_000, 3, 1000)


def _check_sandwich(points, queries, answers, eps=EPS, rho=RHO):
    sq = ((points[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2)
    lo = (sq <= dm.sq_radius(eps)).sum(axis=1)
    hi = (sq <= (eps * (1 + rho)) ** 2).sum(axis=1)
    assert ((lo <= answers) & (answers <= hi)).all(), "Lemma 5 sandwich violated"
    return lo, hi


def measure(config, report=print):
    """Flat-vs-reference comparison on one seed-spreader workload."""
    name, n, d, n_queries = config
    points = seed_spreader(n, d, seed=cfg.SEED).points
    rng = np.random.default_rng(cfg.SEED)
    # Half the queries are data points (the workload of the approximate
    # core test), half uniform (edge probes into mostly empty space).
    queries = np.vstack([
        points[rng.choice(len(points), size=n_queries // 2, replace=False)],
        rng.uniform(0.0, 100_000.0, size=(n_queries - n_queries // 2, d)),
    ])
    report(f"Lemma 5 kernel — SS{d}D, n={n}, {len(queries)} queries, "
           f"eps={EPS:g}, rho={RHO} [{name}]")

    t0 = time.perf_counter()
    ref = CountingHierarchy(points, EPS, RHO)
    ref_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    flat = FlatHierarchy(points, EPS, RHO)
    flat_build = time.perf_counter() - t0
    assert flat.node_count() == ref.node_count()
    report(f"  build: reference {ref_build:.3f} s, flat {flat_build:.3f} s "
           f"({flat.node_count()} cells, {flat.nbytes / 1e6:.1f} MB flat)")

    t0 = time.perf_counter()
    ref_answers = np.array([ref.count(q) for q in queries])
    ref_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    flat_answers = flat.count_many(queries)
    flat_seconds = time.perf_counter() - t0
    speedup = ref_seconds / flat_seconds if flat_seconds > 0 else float("inf")
    report(f"  count: reference {len(queries) / ref_seconds:8.0f} q/s, "
           f"flat {len(queries) / flat_seconds:8.0f} q/s "
           f"(speedup {speedup:.2f}x)")

    # Correctness riding along with every measurement: sandwich always,
    # equality with the reference wherever the contract leaves no freedom.
    lo, hi = _check_sandwich(points, queries, flat_answers)
    _check_sandwich(points, queries, ref_answers)
    exact = lo == hi
    assert (flat_answers[exact] == ref_answers[exact]).all(), (
        "flat and reference disagree on an exact-contract query"
    )

    return {
        "config": name,
        "n": n,
        "d": d,
        "eps": EPS,
        "rho": RHO,
        "queries": int(len(queries)),
        "ref_build_seconds": ref_build,
        "flat_build_seconds": flat_build,
        "ref_queries_per_second": len(queries) / ref_seconds,
        "flat_queries_per_second": len(queries) / flat_seconds,
        "batch_speedup": speedup,
        "nodes": int(flat.node_count()),
        "flat_nbytes": int(flat.nbytes),
        "sandwich_checked": True,
    }


def test_lemma5_build_and_query(report, benchmark):
    ns = [cfg.scaled(n) for n in (2000, 4000, 8000, 16000)]
    rng = np.random.default_rng(cfg.SEED)
    rows = []
    per_query = []
    for n in ns:
        points = seed_spreader(n, 3, seed=cfg.SEED).points
        build = timed("build", lambda: CountingHierarchy(points, EPS, RHO))
        structure = build.result
        queries = rng.uniform(0, 100_000.0, size=(QUERIES, 3))

        def run_queries():
            return [structure.count(q) for q in queries]

        query = timed("query", run_queries)
        per_query.append(query.seconds / QUERIES)
        rows.append([
            str(n), build.cell(), f"{query.seconds / QUERIES * 1e6:.1f}",
            str(structure.node_count()),
        ])

        # Contract check on a sample of queries.
        answers = np.array(query.result)
        _check_sandwich(points, queries, answers)

    report(f"Lemma 5 — counting hierarchy (eps={EPS:g}, rho={RHO}, 3D)")
    report(format_table(["n", "build (s)", "query (us)", "cells stored"], rows))

    # O(1) query shape: per-query time at the largest n is within a small
    # factor of the smallest n.
    assert per_query[-1] <= per_query[0] * 8 + 1e-4

    points = seed_spreader(ns[0], 3, seed=cfg.SEED).points
    benchmark(lambda: CountingHierarchy(points, EPS, RHO))


def test_lemma5_query_benchmark(benchmark):
    points = seed_spreader(cfg.scaled(8000), 3, seed=cfg.SEED).points
    structure = FlatHierarchy(points, EPS, RHO)
    q = points[len(points) // 2][None, :]
    benchmark(lambda: structure.count_many(q))


def test_lemma5_flat_vs_reference_smoke(report):
    """CI smoke: the flat kernel beats the reference even at small n."""
    stats = measure(SMOKE_CONFIG, report)
    assert stats["batch_speedup"] >= SMOKE_BATCH_SPEEDUP, (
        f"flat batched queries only {stats['batch_speedup']:.2f}x faster "
        f"than the reference (smoke target {SMOKE_BATCH_SPEEDUP}x)"
    )


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
    target = SMOKE_BATCH_SPEEDUP if args.smoke else TARGET_BATCH_SPEEDUP
    ok = stats["batch_speedup"] >= target
    if not ok:
        print(f"FAIL: batch speedup {stats['batch_speedup']:.2f}x below "
              f"the {target}x target")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
