"""Command-line interface: ``python -m repro <command>`` or ``repro-dbscan``.

Commands
--------
generate
    Produce a dataset (seed spreader, real-dataset stand-ins, 2D shapes)
    and save it to .npy/.csv.
cluster
    Run any of the paper's algorithms on a saved dataset and print a
    summary (optionally save labels).
compare
    Run two algorithms and report whether they returned the same clusters.
legal-rho
    Compute the maximum legal rho at one eps (the Figure 10 quantity).
collapse
    Find the dataset's collapsing radius (Section 5.1).
serve
    Run the clustering service: line-delimited JSON requests over stdio
    (default) or localhost TCP, with admission control, request
    coalescing and graceful degradation (see docs/SERVICE.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro import config
from repro.api import EXACT_ALGORITHMS, dbscan
from repro.algorithms.approx import approx_dbscan
from repro.data import io as data_io
from repro.data import real_like, seed_spreader as ss_mod, shapes
from repro.errors import (
    ConfigError,
    DataError,
    MemoryBudgetExceeded,
    ReproError,
    ServiceError,
    TimeoutExceeded,
)
from repro.evaluation import collapsing_radius, confusion_summary, max_legal_rho

_ALL_ALGORITHMS = EXACT_ALGORITHMS + ("approx",)

# Exit-code taxonomy (documented in docs/API.md): scripts driving the CLI
# can tell a bad flag from bad data from an exhausted budget without
# parsing stderr.
EXIT_OK = 0
EXIT_ERROR = 2  # any other library error (parameters, checkpoints, ...)
EXIT_CONFIG = 3  # invalid configuration (flags or REPRO_* environment)
EXIT_DATA = 4  # unreadable or invalid input data
EXIT_BUDGET = 5  # time or memory budget exhausted
# 6 is retired (it meant a worker-pool fault); the other codes keep their numbers.
EXIT_SERVICE = 7  # service refused or lost the request (overload, quarantine)


def _run_algorithm(args, points):
    engine = None
    if getattr(args, "engine_cache", False):
        if getattr(args, "resilience", False):
            raise ConfigError(
                "--engine-cache cannot be combined with --resilience: the "
                "degradation cascade manages its own attempts"
            )
        from repro.engine import ClusteringEngine

        engine = ClusteringEngine(points, workers=args.workers)
    if getattr(args, "resilience", False):
        from repro.runtime.resilient import ResiliencePolicy, run_resilient

        policy = ResiliencePolicy(
            time_budget=args.time_budget,
            memory_budget_mb=args.memory_budget_mb,
            rho=args.rho,
            checkpoint=args.checkpoint,
            workers=args.workers,
        )
        return run_resilient(points, args.eps, args.min_pts, policy)
    if args.algorithm == "approx":
        return approx_dbscan(
            points,
            args.eps,
            args.min_pts,
            rho=args.rho,
            time_budget=args.time_budget,
            memory_budget_mb=args.memory_budget_mb,
            checkpoint=args.checkpoint,
            workers=args.workers,
            engine=engine,
        )
    return dbscan(
        points,
        args.eps,
        args.min_pts,
        algorithm=args.algorithm,
        time_budget=args.time_budget,
        memory_budget_mb=args.memory_budget_mb,
        checkpoint=args.checkpoint,
        workers=args.workers,
        engine=engine,
    )


def _cmd_generate(args) -> int:
    if args.kind == "ss":
        ds = ss_mod(args.n, args.d, seed=args.seed)
        points = ds.points
    elif args.kind in real_like.REAL_LIKE_GENERATORS:
        points = real_like.REAL_LIKE_GENERATORS[args.kind](args.n, seed=args.seed)
    elif args.kind == "moons":
        points, _labels = shapes.two_moons(args.n, seed=args.seed)
    elif args.kind == "rings":
        points, _labels = shapes.rings(args.n, seed=args.seed)
    elif args.kind == "snakes":
        points, _labels = shapes.snakes(args.n, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown dataset kind {args.kind}")
    data_io.save_points(points, args.output)
    print(f"wrote {len(points)} x {points.shape[1]} points to {args.output}")
    return 0


def _cmd_cluster(args) -> int:
    points = data_io.load_points(args.input, on_bad_rows=args.on_bad_rows)
    result = _run_algorithm(args, points)
    print(result.summary())
    if getattr(args, "profile", False):
        phase_seconds = result.meta.get("phase_seconds")
        if phase_seconds:
            from repro.evaluation.timing import format_profile

            extra = {}
            cache_stats = result.meta.get("engine_cache")
            if cache_stats:
                extra.update({f"cache {k}": v for k, v in cache_stats.items()})
            kernel_counters = result.meta.get("kernel_counters")
            if kernel_counters:
                extra.update(
                    {f"kernel {k}": v for k, v in sorted(kernel_counters.items())}
                )
            print(format_profile(phase_seconds, extra=extra or None))
        else:
            print(f"no phase profile: algorithm {args.algorithm!r} does not "
                  "run the grid pipeline")
    resilience = result.meta.get("resilience")
    if resilience:
        print(f"resilience: served by tier {resilience['tier']!r} "
              f"after {len(resilience['attempts'])} degradation(s)")
        for attempt in resilience["attempts"]:
            print(f"  - tier {attempt['tier']!r} failed: {attempt['error']}")
    if args.labels_out:
        np.savetxt(args.labels_out, result.labels, fmt="%d")
        print(f"labels written to {args.labels_out}")
    if args.result_out:
        from repro.core.serialize import save_clustering

        save_clustering(result, args.result_out)
        print(f"result written to {args.result_out}")
    return 0


def _cmd_suggest_eps(args) -> int:
    from repro.extensions.stability import suggest_eps

    points = data_io.load_points(args.input)
    sweep = np.linspace(args.lo, args.hi, args.steps)
    plateau = suggest_eps(points, args.min_pts, sweep)
    if plateau is None:
        print("no stable multi-cluster eps range found in the sweep")
        return 1
    print(
        f"stable plateau: eps in [{plateau.eps_lo:g}, {plateau.eps_hi:g}] "
        f"-> {plateau.n_clusters} clusters"
    )
    print(f"suggested eps: {plateau.midpoint:g} "
          f"(rho head-room ~{plateau.relative_width / 2:.3f})")
    return 0


def _cmd_optics(args) -> int:
    from repro.extensions.optics import optics, reachability_profile

    points = data_io.load_points(args.input)
    result = optics(points, args.eps, args.min_pts)
    print(f"OPTICS ordering of {result.n} points (eps={args.eps:g}, "
          f"MinPts={args.min_pts})")
    print(reachability_profile(result))
    return 0


def _cmd_compare(args) -> int:
    points = data_io.load_points(args.input)
    budget = args.time_budget
    first = dbscan(points, args.eps, args.min_pts, algorithm=args.first,
                   time_budget=budget, workers=args.workers)
    if args.second == "approx":
        second = approx_dbscan(points, args.eps, args.min_pts, rho=args.rho,
                               time_budget=budget, workers=args.workers)
    else:
        second = dbscan(points, args.eps, args.min_pts, algorithm=args.second,
                        time_budget=budget, workers=args.workers)
    print(f"{args.first}: {first.summary()}")
    print(f"{args.second}: {second.summary()}")
    print(confusion_summary(first, second))
    return 0


def _cmd_legal_rho(args) -> int:
    points = data_io.load_points(args.input)
    rho = max_legal_rho(points, args.eps, args.min_pts)
    print(f"maximum legal rho at eps={args.eps:g}: {rho:g}")
    return 0


def _cmd_report(args) -> int:
    from repro.evaluation import report as report_mod

    return report_mod.main([args.output] if args.output else [])


def _cmd_collapse(args) -> int:
    points = data_io.load_points(args.input)
    radius = collapsing_radius(points, args.min_pts, lo=args.lo)
    print(f"collapsing radius: {radius:.1f}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service import AdmissionPolicy, ClusteringService, DatasetRegistry
    from repro.service.metrics import serve_metrics
    from repro.service.store import open_store

    policy = AdmissionPolicy(
        max_queue=args.max_queue,
        max_concurrency=args.max_concurrency,
        default_time_budget=args.time_budget,
        default_rho=args.rho,
        sample_size=args.sample_size,
        memory_budget_mb=args.memory_budget_mb,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        fair=not args.no_fair,
        tenant_max_queue=args.tenant_max_queue,
        tenant_max_inflight=args.tenant_max_inflight,
        drain_timeout=args.drain_timeout,
    )
    registry = DatasetRegistry(
        tenant_quota_mb=args.tenant_quota_mb,
        workers=args.workers,
        store=open_store(args.store_dir),
        warm_on_recover=args.warm_on_recover,
    )
    for note in registry.recovered:
        print(f"recovery: {note}", file=sys.stderr)
    if registry.store.persistent:
        print(
            f"recovered {len(registry)} dataset(s) from {args.store_dir}",
            file=sys.stderr,
        )
    service = ClusteringService(registry, policy)
    for spec in args.tenant_weight or ():
        name, _, weight = spec.partition("=")
        if not name or not weight:
            raise ConfigError(f"--tenant-weight takes NAME=WEIGHT; got {spec!r}")
        try:
            registry.configure_tenant(name, weight=float(weight))
        except ValueError:
            raise ConfigError(f"--tenant-weight weight must be a number; got {spec!r}")
    for spec in args.dataset or ():
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ConfigError(f"--dataset takes NAME=PATH; got {spec!r}")
        info = service.register(name, path=path, on_bad_rows=args.on_bad_rows)
        print(
            f"registered dataset {name!r}: {info['n']} x {info['d']} points",
            file=sys.stderr,
        )

    def install_sigterm(loop) -> None:
        # SIGTERM starts the drain protocol: refuse new work, let
        # in-flight requests finish inside the drain budget, flush the
        # journal, exit 0.  A second SIGTERM during the drain still only
        # drains once (the event is already set when it finishes).
        def on_sigterm() -> None:
            asyncio.ensure_future(service.drain())

        try:
            loop.add_signal_handler(signal.SIGTERM, on_sigterm)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without signal-handler support

    async def maybe_metrics():
        if args.metrics_port is None:
            return None
        server = await serve_metrics(service, args.host, args.metrics_port)
        sockname = server.sockets[0].getsockname()
        print(
            f"metrics on http://{sockname[0]}:{sockname[1]}/metrics",
            file=sys.stderr, flush=True,
        )
        return server

    async def run_tcp() -> None:
        install_sigterm(asyncio.get_running_loop())
        metrics_server = await maybe_metrics()
        server = await service.serve_tcp(args.host, args.port)
        sockname = server.sockets[0].getsockname()
        # The banner goes to stderr so stdout stays a pure response
        # stream if anyone pipes it; tests parse the port from it.
        print(f"serving on {sockname[0]}:{sockname[1]}", file=sys.stderr, flush=True)
        async with server:
            await service.shutdown_event().wait()
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()

    async def run_stdio() -> None:
        install_sigterm(asyncio.get_running_loop())
        metrics_server = await maybe_metrics()
        await service.serve_stdio()
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()

    try:
        if args.port is not None:
            asyncio.run(run_tcp())
        else:
            asyncio.run(run_stdio())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        service.close()
        registry.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dbscan",
        description="DBSCAN Revisited (SIGMOD'15) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset")
    gen.add_argument("kind", choices=("ss", "pamap2", "farm", "household", "moons", "rings", "snakes"))
    gen.add_argument("output", help="output path (.npy, .csv or .txt)")
    gen.add_argument("-n", type=int, default=10_000, help="cardinality")
    gen.add_argument("-d", type=int, default=3, help="dimensionality (ss only)")
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=_cmd_generate)

    def add_common(p, with_algorithm=True):
        p.add_argument("input", help="dataset path (.npy, .csv or .txt)")
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--min-pts", dest="min_pts", type=int, default=config.PAPER_MINPTS)
        if with_algorithm:
            p.add_argument("--rho", type=float, default=config.DEFAULT_RHO)

    clu = sub.add_parser("cluster", help="cluster a dataset")
    add_common(clu)
    clu.add_argument("--algorithm", choices=_ALL_ALGORITHMS, default="approx")
    clu.add_argument("--labels-out", dest="labels_out", default=None)
    clu.add_argument("--result-out", dest="result_out", default=None,
                     help="save the full result (.json or .npz)")
    clu.add_argument("--time-budget", dest="time_budget", type=float, default=None,
                     help="per-run cut-off in seconds (TimeoutExceeded past it)")
    clu.add_argument("--memory-budget-mb", dest="memory_budget_mb", type=float,
                     default=None, help="RSS budget in megabytes")
    clu.add_argument("--checkpoint", default=None,
                     help=".npz checkpoint path for phase-level resume "
                          "(grid/gunawan2d/approx)")
    clu.add_argument("--workers", type=int, default=None,
                     help="threads for the core labeling of the grid-pipeline "
                          "algorithms (grid/gunawan2d/approx); default "
                          "$REPRO_WORKERS or 1")
    clu.add_argument("--on-bad-rows", dest="on_bad_rows",
                     choices=data_io.BAD_ROW_MODES, default="raise",
                     help="policy for invalid input rows (non-numeric, "
                          "ragged or non-finite): fail fast, drop them, or "
                          "quarantine them to a sidecar file")
    clu.add_argument("--resilience", action="store_true",
                     help="run the degradation cascade instead of one "
                          "algorithm: exact under budget, else "
                          "rho-approximate, else subsampled")
    clu.add_argument("--engine-cache", dest="engine_cache", action="store_true",
                     help="answer the run through a ClusteringEngine "
                          "structure cache (grids, indexes and core masks "
                          "are reused across calls in this process; output "
                          "is byte-identical)")
    clu.add_argument("--profile", action="store_true",
                     help="print a per-phase timing breakdown (and cache "
                          "statistics with --engine-cache) after the summary")
    clu.set_defaults(func=_cmd_cluster)

    sug = sub.add_parser("suggest-eps", help="find a stable eps plateau")
    sug.add_argument("input")
    sug.add_argument("--min-pts", dest="min_pts", type=int, default=config.PAPER_MINPTS)
    sug.add_argument("--lo", type=float, default=1000.0)
    sug.add_argument("--hi", type=float, default=50_000.0)
    sug.add_argument("--steps", type=int, default=12)
    sug.set_defaults(func=_cmd_suggest_eps)

    opt = sub.add_parser("optics", help="OPTICS reachability profile")
    add_common(opt, with_algorithm=False)
    opt.set_defaults(func=_cmd_optics)

    rep = sub.add_parser("report", help="run the quick experiment battery")
    rep.add_argument("output", nargs="?", default=None,
                     help="optional markdown output path")
    rep.set_defaults(func=_cmd_report)

    cmp_ = sub.add_parser("compare", help="compare two algorithms")
    add_common(cmp_)
    cmp_.add_argument("--first", choices=EXACT_ALGORITHMS, default="grid")
    cmp_.add_argument("--second", choices=_ALL_ALGORITHMS, default="approx")
    cmp_.add_argument("--time-budget", dest="time_budget", type=float, default=None,
                     help="per-algorithm cut-off in seconds")
    cmp_.add_argument("--workers", type=int, default=None,
                     help="core-labeling threads for grid-pipeline algorithms")
    cmp_.set_defaults(func=_cmd_compare)

    lr = sub.add_parser("legal-rho", help="maximum legal rho at one eps")
    add_common(lr, with_algorithm=False)
    lr.set_defaults(func=_cmd_legal_rho)

    srv = sub.add_parser(
        "serve",
        help="serve clustering requests (line-delimited JSON, stdio or TCP)",
    )
    srv.add_argument("--port", type=int, default=None,
                     help="listen on localhost TCP instead of stdio "
                          "(0 = pick a free port; the bound address is "
                          "printed to stderr)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="TCP bind address (default: localhost only)")
    srv.add_argument("--dataset", action="append", metavar="NAME=PATH",
                     help="pre-register a dataset at startup (repeatable)")
    srv.add_argument("--on-bad-rows", dest="on_bad_rows",
                     choices=data_io.BAD_ROW_MODES, default="raise",
                     help="bad-row policy for --dataset files")
    srv.add_argument("--max-queue", dest="max_queue", type=int, default=32,
                     help="outstanding-request bound; excess requests are "
                          "shed with a structured overload error")
    srv.add_argument("--max-concurrency", dest="max_concurrency", type=int,
                     default=2, help="engine executions running at once")
    srv.add_argument("--time-budget", dest="time_budget", type=float,
                     default=None,
                     help="default per-request deadline in seconds")
    srv.add_argument("--memory-budget-mb", dest="memory_budget_mb", type=float,
                     default=None,
                     help="service RSS budget; high memory pressure degrades "
                          "requests to the sampled tier")
    srv.add_argument("--rho", type=float, default=config.DEFAULT_RHO,
                     help="rho used when the ladder degrades an exact request")
    srv.add_argument("--sample-size", dest="sample_size", type=int,
                     default=2000, help="point budget of the sampled tier")
    srv.add_argument("--tenant-quota-mb", dest="tenant_quota_mb", type=float,
                     default=None,
                     help="per-tenant structure-cache byte quota in MB")
    srv.add_argument("--breaker-threshold", dest="breaker_threshold", type=int,
                     default=3,
                     help="consecutive infrastructure failures that "
                          "quarantine a dataset")
    srv.add_argument("--breaker-cooldown", dest="breaker_cooldown", type=float,
                     default=30.0,
                     help="seconds before a quarantined dataset gets a "
                          "half-open probe")
    srv.add_argument("--workers", type=int, default=None,
                     help="core-labeling threads per engine execution")
    srv.add_argument("--store-dir", dest="store_dir", default=None,
                     help="persist the dataset catalog (snapshot + "
                          "append-only journal + payload files) under this "
                          "directory; a restart with the same directory "
                          "recovers every dataset and tenant config")
    srv.add_argument("--warm-on-recover", dest="warm_on_recover",
                     action="store_true",
                     help="rebuild each recovered dataset's journaled "
                          "warm-eps grids before serving (slower start, "
                          "no cold first request)")
    srv.add_argument("--no-fair", dest="no_fair", action="store_true",
                     help="use the legacy FIFO execution gate instead of "
                          "weighted fair queueing (benchmark baseline)")
    srv.add_argument("--tenant-weight", dest="tenant_weight",
                     action="append", metavar="NAME=WEIGHT",
                     help="fair-queueing weight for a tenant (repeatable; "
                          "default 1.0; persisted when --store-dir is set)")
    srv.add_argument("--tenant-max-queue", dest="tenant_max_queue",
                     type=int, default=None,
                     help="default per-tenant bound on queued requests "
                          "(per-tenant overrides via the 'tenant' op)")
    srv.add_argument("--tenant-max-inflight", dest="tenant_max_inflight",
                     type=int, default=None,
                     help="default per-tenant bound on concurrently "
                          "executing requests")
    srv.add_argument("--drain-timeout", dest="drain_timeout", type=float,
                     default=30.0,
                     help="seconds SIGTERM gives in-flight requests to "
                          "finish before the journal is flushed and the "
                          "process exits 0")
    srv.add_argument("--metrics-port", dest="metrics_port", type=int,
                     default=None,
                     help="serve GET /metrics (Prometheus text) and "
                          "/healthz on this localhost port (0 = pick a "
                          "free port, printed to stderr)")
    srv.set_defaults(func=_cmd_serve)

    col = sub.add_parser("collapse", help="find the collapsing radius")
    col.add_argument("input")
    col.add_argument("--min-pts", dest="min_pts", type=int, default=config.PAPER_MINPTS)
    col.add_argument("--lo", type=float, default=1.0)
    col.set_defaults(func=_cmd_collapse)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI command and translate failures into exit codes.

    Exit codes
    ----------
    - ``0`` — success.
    - ``2`` — any other library error (bad parameters, checkpoint
      problems, ...); also argparse's own usage-error code.
    - ``3`` — invalid configuration: a malformed ``REPRO_*`` environment
      variable or flag value (:class:`~repro.errors.ConfigError`).
    - ``4`` — unreadable or invalid input data, including rows rejected
      by ``--on-bad-rows raise`` (:class:`~repro.errors.DataError` /
      :class:`~repro.errors.InvalidDataError`).
    - ``5`` — a time or memory budget was exhausted
      (:class:`~repro.errors.TimeoutExceeded`,
      :class:`~repro.errors.MemoryBudgetExceeded`).
    - ``6`` — not used (it meant a worker-pool fault).
    - ``7`` — the clustering service refused or lost the request:
      load shedding (:class:`~repro.errors.ServiceOverloadError`), an
      open circuit breaker
      (:class:`~repro.errors.DatasetQuarantinedError`), or an unknown
      dataset (:class:`~repro.errors.UnknownDatasetError`).  Requests
      answered over the wire carry the same taxonomy as structured
      ``error.code`` fields instead of exit codes.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Fail fast on malformed fleet-wide knobs: the chunk budget is
        # only read deep inside the chunked kernels, which not every
        # workload reaches — validating here keeps the exit-3 contract
        # uniform across commands.
        config.chunk_budget()
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TimeoutExceeded, MemoryBudgetExceeded) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
