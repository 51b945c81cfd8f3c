"""Runtime-guard overhead: deadline checks must cost <5% on Figure 11.

The resilient runtime threads a cooperative :class:`repro.runtime.Deadline`
through every algorithm's hot loops (one monotonic-clock read per work
unit).  That only stays free if the work units are coarse enough; this
bench is the guard.  It times the exact grid algorithm on the Figure-11
small config with no budget versus a budget far too large to trigger, and
asserts the median slowdown stays under 5%.  The memory guard is polled at
phase boundaries only (a handful of /proc reads per run), so it rides
along in the budgeted timing.

A second measurement holds the parallel *supervisor* to the same budget:
on a fault-free run, its owned worker processes, one pipe each, and the
wait on pipes and sentinels must cost <5% over a bare
``multiprocessing.Pool.imap_unordered`` fan-out.  The library only ships
the supervised fan-out, so the bare baseline, plain fork pool included,
lives here (:func:`_bare_fan_out`) and is patched in for the baseline
timing.

Run standalone with ``python -m benchmarks.bench_runtime_overhead`` or via
pytest like the other benches.
"""

from __future__ import annotations

import multiprocessing as mp
import statistics
import time
from unittest import mock

from repro import dbscan
from repro.data import seed_spreader

from . import config as cfg

#: Acceptable median slowdown from deadline/memory polling.
OVERHEAD_BUDGET = 0.05

#: Timed back-to-back (plain, guarded) pairs.
REPEATS = 25

#: A budget no small-config run can reach, so every check is a miss.
NEVER_TRIGGERS = 3600.0


def _paired_times(fn_a, fn_b, repeats=REPEATS):
    """Per-pair (a_seconds, b_seconds), measured back to back.

    On a millisecond workload the guard cost is microseconds, far below a
    shared box's run-to-run jitter — so each variant pair is timed back to
    back (same cache and scheduler state) and the *median of per-pair
    ratios* is compared, which cancels the jitter that independent
    medians or minimums cannot.
    """
    pairs = []
    for i in range(repeats):
        # Alternate within-pair order so "ran second" effects (cache heat,
        # frequency scaling) do not bias one variant.
        first_is_a = i % 2 == 0
        t0 = time.perf_counter()
        (fn_a if first_is_a else fn_b)()
        first = time.perf_counter() - t0
        t0 = time.perf_counter()
        (fn_b if first_is_a else fn_a)()
        second = time.perf_counter() - t0
        pairs.append((first, second) if first_is_a else (second, first))
    return pairs


def measure_overhead(report=print):
    n = cfg.FIG11_N_SWEEP[0]
    d = 3
    points = seed_spreader(n, d, seed=cfg.SEED + d).points

    def plain():
        dbscan(points, cfg.DEFAULT_EPS, cfg.MINPTS, algorithm="grid")

    def guarded():
        dbscan(
            points,
            cfg.DEFAULT_EPS,
            cfg.MINPTS,
            algorithm="grid",
            time_budget=NEVER_TRIGGERS,
            memory_budget_mb=1 << 20,
        )

    plain()  # warm caches outside the timed region
    guarded()
    pairs = _paired_times(plain, guarded)
    base = statistics.median(a for a, _ in pairs)
    with_guards = statistics.median(b for _, b in pairs)
    overhead = statistics.median(b / a - 1.0 for a, b in pairs)

    report(f"runtime-guard overhead — SS{d}D, n={n}, eps={cfg.DEFAULT_EPS:g}, "
           f"MinPts={cfg.MINPTS}, median of {REPEATS} back-to-back pairs")
    report(f"  unguarded        : {base * 1e3:8.2f} ms")
    report(f"  deadline + memory: {with_guards * 1e3:8.2f} ms")
    report(f"  overhead         : {overhead:+.2%} (budget {OVERHEAD_BUDGET:.0%})")
    return overhead


def _bare_fan_out(cfg, n_workers, payload, kind, items, consume, *,
                  deadline, memory):
    """Unsupervised stand-in for ``executor._fan_out``: one plain fork
    pool, ``imap_unordered`` over the worker task function, budget guards
    polled between results — and any worker failure fatal to the run."""
    from repro.parallel import worker

    phase = str(payload.get("phase", kind))
    ctx = mp.get_context("fork")
    with ctx.Pool(n_workers, initializer=worker.init_worker, initargs=(payload,)) as pool:
        for result in pool.imap_unordered(worker.cores_task, items):
            consume(result)
            if deadline is not None:
                deadline.check()
            if memory is not None:
                memory.check(phase)
        pool.close()
        pool.join()


def measure_supervisor_overhead(report=print, repeats=7):
    """Fault-free supervision cost versus the bare ``imap_unordered`` pool.

    The supervisor replaces the pool with owned processes, one task in
    flight per worker and a wait on pipes and sentinels; on a fault-free
    run that bookkeeping must stay under the same 5% budget.  Measured on
    a parallel-forced small run (worker startup is inside both timings).
    """
    from repro.parallel import ParallelConfig, executor

    n = 4000
    d = 3
    points = seed_spreader(n, d, seed=cfg.SEED + d).points
    workers = ParallelConfig(workers=2, min_points=0)

    def bare():
        with mock.patch.object(executor, "_fan_out", _bare_fan_out):
            dbscan(points, cfg.DEFAULT_EPS, cfg.MINPTS, algorithm="grid",
                   workers=workers)

    def supervised():
        dbscan(points, cfg.DEFAULT_EPS, cfg.MINPTS, algorithm="grid",
               workers=workers)

    bare()  # warm caches (and fork state) outside the timed region
    supervised()
    pairs = _paired_times(bare, supervised, repeats=repeats)
    base = statistics.median(a for a, _ in pairs)
    with_supervisor = statistics.median(b for _, b in pairs)
    overhead = statistics.median(b / a - 1.0 for a, b in pairs)

    report(f"supervisor overhead — SS{d}D, n={n}, 2 workers, fault-free, "
           f"median of {repeats} back-to-back pairs")
    report(f"  bare imap_unordered: {base * 1e3:8.2f} ms")
    report(f"  supervised         : {with_supervisor * 1e3:8.2f} ms")
    report(f"  overhead           : {overhead:+.2%} (budget {OVERHEAD_BUDGET:.0%})")
    return overhead


def test_runtime_overhead(report):
    overhead = measure_overhead(report)
    assert overhead < OVERHEAD_BUDGET, (
        f"deadline checks cost {overhead:.2%} (> {OVERHEAD_BUDGET:.0%}); "
        "hot-loop poll granularity has regressed"
    )


def test_supervisor_overhead(report):
    overhead = measure_supervisor_overhead(report)
    assert overhead < OVERHEAD_BUDGET, (
        f"fault-free supervision costs {overhead:.2%} (> {OVERHEAD_BUDGET:.0%}); "
        "the send/wait loop has regressed"
    )


if __name__ == "__main__":
    failed = measure_overhead() >= OVERHEAD_BUDGET
    failed |= measure_supervisor_overhead() >= OVERHEAD_BUDGET
    raise SystemExit(1 if failed else 0)
