"""One benchmark workload, run in a fresh process by ``perfbench/run.py``.

    python3 perfbench/workload.py --workload W --data D.npy --oracle O.npz \\
        --seconds S --launch T --out R.json [--probe | --trace --spans P.json]

``--launch`` is the caller's ``time.monotonic()`` taken just before it
started this process; the clock is system-wide, so set-up time includes
interpreter start-up and imports.  ``--probe`` only sets up and reports
its set-up time.  Without ``--trace`` the process runs the closed loop and
reports raw timings; with it, it runs the same loop untraced (the
denominator of ``trace.coverage``) and then replays the operation as a
sequence of calls into the layers' public functions, each inside a span.
Every result is checked (see ``oracle.py``); the summary goes to ``--out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import queue
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import repro

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import Oracle, digest  # noqa: E402
from spec import SETUP_SAMPLES, WORKLOADS  # noqa: E402
from trace import Tracer  # noqa: E402

#: Problems kept verbatim in the output (all are counted).
MAX_PROBLEMS = 20


class Ledger:
    """Operations attempted / failed and the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._lock = threading.Lock()

    def record(self, problems) -> None:
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    def fail(self, problem: str) -> None:
        """A failure outside any operation (a leak, an unclean exit)."""
        with self._lock:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)


class Checker:
    """Oracle checks plus digest equality with a reference per request."""

    def __init__(self, oracle: Oracle, ledger: Ledger) -> None:
        self.oracle = oracle
        self.ledger = ledger
        self.reference = {}

    def problems(self, req, result) -> list:
        eps, min_pts, _rho = req
        found = self.oracle.check(result, eps, min_pts)
        d = digest(result)
        ref = self.reference.setdefault(req, d)
        if d != ref:
            found.append(f"{req}: result digest differs from the reference")
        return found

    def op(self, outs) -> None:
        found = []
        for req, result in outs:
            found.extend(self.problems(req, result))
        self.ledger.record(found)


def peak_rss_mb(children: bool = False) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def closed_loop(op, seconds: float):
    """Issue ``op`` back to back while the window is open.

    Returns the operation wall times and the window length, which ends
    when the last operation (and its check) completes.
    """
    lat = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        lat.append(op())
    return lat, perf_counter() - t0


# ------------------------------------------------------------ library ops


def lib_op(X, req):
    eps, min_pts, rho = req
    if rho is None:
        return [(req, repro.dbscan(X, eps=eps, min_pts=min_pts))]
    return [(req, repro.approx_dbscan(X, eps=eps, min_pts=min_pts, rho=rho))]


def sweep_op(X, reqs, workers, ledger, extra):
    from repro.parallel import leaked_segments

    engine = repro.ClusteringEngine(X, cache=repro.StructureCache())
    eps_list = [r[0] for r in reqs]
    results = engine.sweep(eps_list, min_pts=reqs[0][1], workers=workers)
    extra["cache"] = engine.cache.stats()
    engine.cache.clear()
    leaked = leaked_segments()
    if leaked:
        ledger.fail(f"shared-memory segments leaked: {leaked}")
    return list(zip(reqs, results))


def run_library(args, spec, X, checker, ledger):
    """Untraced closed loop of a ``lib`` or ``sweep`` workload."""
    extra = {}
    if spec["kind"] == "lib":
        def op():
            return lib_op(X, spec["requests"][0])
    else:
        def op():
            return sweep_op(X, spec["requests"], spec["workers"], ledger, extra)

    def timed():
        t = perf_counter()
        outs = op()
        took = perf_counter() - t
        checker.op(outs)
        return took

    first = timed()
    lat, window = closed_loop(timed, args.seconds)
    return {
        "first_op_s": first,
        "latencies_s": lat,
        "window_s": window,
        "peak_rss_mb": peak_rss_mb(children=spec["kind"] == "sweep"),
        "cache": extra.get("cache"),
    }


# ------------------------------------------------------------ the service


class Server:
    """A ``repro serve --port 0`` subprocess with the dataset registered."""

    def __init__(self, data_path: str) -> None:
        from repro.service.client import TcpServiceClient

        self.launch = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--dataset", f"ss={data_path}"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.log: deque = deque(maxlen=40)
        banner: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, args=(banner,), daemon=True)
        self.reader.start()
        try:
            self.port = banner.get(timeout=120)
            if self.port is None:
                raise RuntimeError("server exited before serving: " + " | ".join(self.log))
            with TcpServiceClient(port=self.port, timeout=60) as client:
                if not client.ping():
                    raise RuntimeError("server did not answer ping")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - self.launch

    def _read(self, banner: queue.Queue) -> None:
        announced = False
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            if not announced and "serving on " in line:
                announced = True
                banner.put(int(line.rsplit(":", 1)[1]))
        if not announced:
            banner.put(None)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=10)

    def stop(self):
        """``shutdown`` op, then kill after a timeout; returns the exit status."""
        from repro.service.client import TcpServiceClient

        if self.proc.poll() is None:
            try:
                with TcpServiceClient(port=self.port, timeout=10) as client:
                    client.shutdown()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.kill()
                return "killed"
        self.reader.join(timeout=10)
        return self.proc.returncode


def svc_request(client, req):
    """One request over ``client``; returns (raw response, decoded result)."""
    from repro.core.serialize import from_dict

    eps, min_pts, rho = req
    fields = {} if rho is None else {"rho": rho}
    raw = client.cluster_raw("ss", eps, min_pts, **fields)
    return raw, from_dict(raw["clustering"])


def svc_problems(checker, req, raw, result):
    requested = "exact" if req[2] is None else "approx"
    found = checker.problems(req, result)
    if raw.get("tier") != requested:
        found.append(f"{req}: served at tier {raw.get('tier')!r} ({raw.get('reason')})")
    return found


def drive(connections, mix, one_request, *, seconds=None, count=None):
    """Closed loop on every connection, one thread each.

    Connection ``c`` starts ``c * len(mix) / len(connections)`` requests
    into the mix, so the connections rarely send the same request at once.
    Runs for ``seconds`` (window) or ``count`` requests per connection.
    """
    lat = []
    t0 = perf_counter()
    step = len(mix) // len(connections)

    def run(c):
        i = 0
        while (count is None and perf_counter() - t0 < seconds) or (
            count is not None and i < count
        ):
            took = one_request(c, mix[(c * step + i) % len(mix)])
            if took is not None:
                lat.append(took)
            i += 1

    threads = [threading.Thread(target=run, args=(c,)) for c in range(len(connections))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return lat, perf_counter() - t0


def run_service(args, spec, X, checker, ledger, tracer=None):
    from repro.service.client import TcpServiceClient

    mix = spec["requests"]
    engine = repro.ClusteringEngine(X, cache=repro.StructureCache())
    references = {}
    for req in mix:
        eps, min_pts, rho = req
        result = (
            engine.dbscan(eps, min_pts) if rho is None
            else engine.approx_dbscan(eps, min_pts, rho)
        )
        ledger.record(checker.problems(req, result))
        references[req] = result

    setups = []
    for _ in range(SETUP_SAMPLES["svc"] - 1 if tracer is None else 0):
        probe = Server(args.data)
        setups.append(probe.setup_s)
        code = probe.stop()
        if code != 0:
            ledger.fail(f"set-up probe server exited with {code}")

    server = Server(args.data)
    setups.append(server.setup_s)
    out = {"setup_samples_s": setups}
    clients = []
    try:
        clients = [
            TcpServiceClient(port=server.port, timeout=120).connect()
            for _ in range(spec["connections"])
        ]

        def one_request(c, req):
            t = perf_counter()
            try:
                raw, result = svc_request(clients[c], req)
            except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
                ledger.record([f"{req}: {type(exc).__name__}: {exc}"])
                return None
            took = perf_counter() - t
            ledger.record(svc_problems(checker, req, raw, result))
            return took

        out["first_op_s"] = one_request(0, mix[0])
        drive(clients, mix, one_request, count=len(mix))
        stats0 = clients[0].stats()
        sets0 = clients[0].datasets()["ss"]["cache"]
        out["latencies_s"], out["window_s"] = drive(
            clients, mix, one_request, seconds=args.seconds
        )
        stats1 = clients[0].stats()
        sets1 = clients[0].datasets()["ss"]["cache"]
        out["peak_rss_mb"] = server.vm_hwm_mb()
        out["service"] = {
            "executed": stats1["executed"] - stats0["executed"],
            "accepted": stats1["accepted"] - stats0["accepted"],
            "hits": sets1["hits"] - sets0["hits"],
            "misses": sets1["misses"] - sets0["misses"],
            "evictions": sets1["evictions"] - sets0["evictions"],
        }
        if tracer is not None:
            out["traced"] = traced_service(
                args, tracer, server, mix, spec["connections"], checker, ledger, engine,
                references,
            )
    finally:
        for client in clients:
            client.close()
        code = server.stop()
        out["server_exit"] = code
        if code != 0:
            ledger.fail(f"server exited with {code}")
    return out


class LineClient:
    """Bare line-delimited JSON connection to ``repro serve``.

    The traced run uses it instead of ``TcpServiceClient`` so the round
    trip can be split at the socket read (wire) and the JSON decode.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.fh = self.sock.makefile("rwb")

    def roundtrip(self, line: bytes) -> bytes:
        self.fh.write(line)
        self.fh.flush()
        reply = self.fh.readline()
        if not reply:
            raise ConnectionResetError("server closed the connection")
        return reply

    def close(self) -> None:
        self.fh.close()
        self.sock.close()


def traced_service(args, tracer, server, mix, connections, checker, ledger, engine,
                   references):
    from repro.core.serialize import from_dict

    conns = [LineClient(server.port) for _ in range(connections)]
    counter = itertools.count()
    sizes = []

    def one_request(c, req):
        eps, min_pts, rho = req
        payload = {"id": next(counter), "op": "cluster", "dataset": "ss",
                   "eps": eps, "min_pts": min_pts}
        if rho is not None:
            payload["rho"] = rho
        line = (json.dumps(payload) + "\n").encode()
        with tracer.span("op", op=f"req-{payload['id']}") as root:
            t_send = perf_counter()
            try:
                reply = conns[c].roundtrip(line)
            except OSError as exc:
                ledger.record([f"{req}: {type(exc).__name__}: {exc}"])
                return None
            t_recv = perf_counter()
            wire = tracer.add("svc.wire", t_send, t_recv, root)
            with tracer.span("serialize.json"):
                response = json.loads(reply)
            if not response.get("ok"):
                ledger.record([f"{req}: {response.get('error')}"])
                return None
            raw = response["result"]
            tracer.add("svc.exec", t_recv - raw["elapsed"], t_recv, wire)
            with tracer.span("serialize.from_dict"):
                result = from_dict(raw["clustering"])
        sizes.append(len(reply))
        ledger.record(svc_problems(checker, req, raw, result))
        return t_recv - t_send

    try:
        drive(conns, mix, one_request, seconds=args.seconds)
    finally:
        for conn in conns:
            conn.close()
    replay_register(tracer, args.data)
    return {
        "response_bytes": statistics.median(sizes) if sizes else 0,
        "server_counts": replay_server(tracer, engine, mix, references, checker),
    }


# --------------------------------------------------------------- replays


@contextmanager
def counting(counts):
    """Add the library's kernel-counter deltas over the block to ``counts``."""
    from repro.grid import counters

    before = counters.snapshot()
    try:
        yield
    finally:
        for name, value in counters.delta_since(before).items():
            counts[name] += value


def build_grid(tracer, pts, eps, counts):
    from repro.grid.cells import Grid

    with tracer.span("grid.build"):
        grid = Grid(pts, eps)
    counts["grid.cells"] += len(grid)
    counts["grid.allpairs"] += int(grid.uses_allpairs_adjacency)
    return grid


def replay_pipeline(tracer, grid, min_pts, rho, counts, *, known_core=None,
                    preunion=None, cfg=None):
    """The grid pipeline's phases after the grid, in ``run_grid_pipeline``'s order.

    ``cfg=None`` is the serial path; the ``parallel_*`` entry points then
    call ``label_cores`` / ``*_components`` / ``assign_borders`` directly,
    as the pipeline does.
    """
    from repro.core.result import build_clustering
    from repro.parallel import (
        parallel_approx_components,
        parallel_assign_borders,
        parallel_exact_components,
        parallel_label_cores,
        parallel_warm_neighbors,
        unpublish_grid,
    )

    def name(layer):
        return layer if cfg is None else f"parallel.{layer}"

    try:
        with tracer.span("grid.warm" if cfg is None else "parallel.warm_neighbors"):
            parallel_warm_neighbors(grid, cfg)
        with tracer.span(name("cores")), counting(counts):
            core = parallel_label_cores(grid, min_pts, cfg, known_core=known_core)
        with tracer.span(name("components")), counting(counts):
            if rho is None:
                labels, _k = parallel_exact_components(grid, core, cfg, preunion=preunion)
            else:
                labels, _k = parallel_approx_components(grid, core, cfg, rho, preunion=preunion)
        with tracer.span(name("borders")), counting(counts):
            borders = parallel_assign_borders(grid, core, labels, cfg)
        counts["borders.multi"] += sum(1 for cids in borders.values() if len(cids) > 1)
        with tracer.span("result.build"):
            result = build_clustering(len(grid.points), core, labels, borders)
        counts["result.clusters"] += result.n_clusters
    finally:
        unpublish_grid(grid)
    return result


def replay_lib(tracer, X, req, op_id, counts):
    from repro.utils.validation import as_points

    with tracer.span("op", op=op_id):
        with tracer.span("ingest.as_points"):
            pts = as_points(X)
        grid = build_grid(tracer, pts, req[0], counts)
        result = replay_pipeline(tracer, grid, req[1], req[2], counts)
    return [(req, result)]


def replay_sweep(tracer, X, reqs, op_id, counts, cfg=None):
    """``ClusteringEngine(X).sweep(...)`` with a fresh cache, step by step."""
    from repro.engine.sweep import preunion_pairs
    from repro.runtime.checkpoint import fingerprint_points
    from repro.utils.validation import as_points

    outs = []
    with tracer.span("op", op=op_id):
        with tracer.span("ingest.as_points"):
            pts = as_points(X)
        with tracer.span("ingest.fingerprint"):
            fingerprint_points(pts)
        prev = None
        for req in sorted(reqs):
            eps, min_pts, rho = req
            with tracer.span("sweep.step"):
                grid = build_grid(tracer, pts, eps, counts)
                known = pre = None
                if prev is not None:
                    known = prev.core_mask
                    with tracer.span("sweep.preunion"):
                        pre = preunion_pairs(prev, grid)
                    counts["sweep.preunion_pairs"] += len(pre)
                prev = replay_pipeline(
                    tracer, grid, min_pts, rho, counts,
                    known_core=known, preunion=pre, cfg=cfg,
                )
                if known is not None:
                    counts["sweep.known_cores"] += int(known.sum())
                    counts["sweep.warm_cores"] += int(prev.core_mask.sum())
            outs.append((req, prev))
    return outs


def replay_server(tracer, engine, mix, references, checker):
    """What the warm server does per request after its caches filled.

    Grid and core mask come from the engine's cache (as on the server);
    components, borders, result assembly and the response encoding run
    again.  Recorded as operations ``server-<i>``, outside the request
    timeline.
    """
    from repro.core.cellgraph import approx_components, exact_components
    from repro.core.border import assign_borders
    from repro.core.result import build_clustering
    from repro.core.serialize import to_dict

    counts = defaultdict(float)
    for i, req in enumerate(mix):
        eps, min_pts, rho = req
        core = references[req].core_mask
        structures = {}
        if rho is not None:  # the server's cache holds warm Lemma 5 structures
            approx_components(engine.grid(eps), core, rho, structures=structures)
        with tracer.span("op", op=f"server-{i}"):
            with tracer.span("grid.build"):
                grid = engine.grid(eps)
            with tracer.span("components"), counting(counts):
                if rho is None:
                    labels, _k = exact_components(grid, core)
                else:
                    labels, _k = approx_components(grid, core, rho, structures=structures)
            with tracer.span("borders"), counting(counts):
                borders = assign_borders(grid, core, labels)
            counts["borders.multi"] += sum(1 for c in borders.values() if len(c) > 1)
            with tracer.span("result.build"):
                result = build_clustering(len(grid.points), core, labels, borders)
            counts["result.clusters"] += result.n_clusters
            counts["grid.cells"] += len(grid)
            counts["grid.allpairs"] += int(grid.uses_allpairs_adjacency)
            with tracer.span("serialize.to_dict"):
                body = to_dict(result)
            with tracer.span("serialize.json_dumps"):
                text = json.dumps({"id": i, "ok": True, "result": {"clustering": body}})
            counts["serialize.json_bytes"] += len(text)
        checker.op([(req, result)])
    return counts


def replay_register(tracer, path):
    """The server's dataset registration: load, validate, fingerprint."""
    from repro.data.io import load_points
    from repro.runtime.checkpoint import fingerprint_points
    from repro.utils.validation import as_points

    with tracer.span("op", op="register"):
        with tracer.span("ingest.load"):
            raw = load_points(path)
        with tracer.span("ingest.as_points"):
            pts = as_points(raw)
        with tracer.span("ingest.fingerprint"):
            fingerprint_points(pts)


# --------------------------------------------------------------- metrics


def _ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def _share(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(workload, tracer, counts, untraced_p50_s, info):
    """Every per-layer metric this workload exercises, per operation.

    ``info["coverage_ops"]`` are the traced operations that mirror the
    untraced one (``trace.coverage`` divides their attributed self time by
    the untraced median); ``info["layer_ops"]`` (default: the same) are the
    serial replays the single-layer timings and counters come from.
    """
    kind = WORKLOADS[workload]["kind"]
    m = {}
    ops_main = info["coverage_ops"]
    n_main = max(1, len(ops_main))
    ops = info.get("layer_ops", ops_main)
    n = max(1, len(ops))
    c = counts

    def per_op(name, which=ops, count=n):
        return 1e3 * sum(tracer.named(name, which)) / count

    # The server ingests once, at registration (replayed as op "register").
    ingest_ops, n_ingest = (["register"], 1) if kind == "svc" else (ops, n)
    m["ingest.as_points_ms"] = per_op("ingest.as_points", ingest_ops, n_ingest)
    m["ingest.fingerprint_ms"] = per_op("ingest.fingerprint", ingest_ops, n_ingest)
    m["grid.build_ms"] = per_op("grid.build") + per_op("grid.warm")
    m["grid.cells"] = c["grid.cells"] / n
    m["grid.allpairs"] = c["grid.allpairs"] / n
    m["cores.ms"] = per_op("cores")
    m["cores.counted_points"] = c["core_counted_points"] / n
    m["cores.quick_share"] = _share(
        c["core_dense_points"] + c["core_upperbound_reject_points"], c["core_points_total"])
    m["components.ms"] = per_op("components")
    m["edges.pairs_total"] = c["edge_pairs_total"] / n
    m["edges.survivors"] = c["edge_survivors"] / n
    m["edges.quick_share"] = _share(
        c["edge_quick_accept"] + c["edge_quick_reject"], c["edge_pairs_total"])
    m["borders.ms"] = per_op("borders")
    m["borders.assigned"] = c["border_assigned"] / n
    m["borders.multi"] = c["borders.multi"] / n
    m["result.build_ms"] = per_op("result.build")
    m["result.clusters"] = c["result.clusters"] / n

    if kind == "sweep":
        m["sweep.preunion_ms"] = per_op("sweep.preunion")
        m["sweep.preunion_pairs"] = c["sweep.preunion_pairs"] / n
        m["sweep.known_core_share"] = _share(c["sweep.known_cores"], c["sweep.warm_cores"])
        steps = tracer.named("sweep.step", ops[:1])
        m["sweep.cold_step_ms"] = 1e3 * steps[0]
        m["sweep.warm_step_ms"] = _ms(steps[1:])
        for phase in ("warm_neighbors", "cores", "components", "borders"):
            m[f"parallel.{phase}_ms"] = per_op(f"parallel.{phase}", ops_main, n_main)
        m["parallel.speedup"] = _share(
            sum(tracer.named("op", ops)) / n, sum(tracer.named("op", ops_main)) / n_main
        )
        for key in ("tasks", "task_bytes", "result_bytes"):
            m[f"parallel.{key}"] = info["copies"][key] / n_main
        m["parallel.shard_retries"] = info["shard_retries"] / n_main
    if info.get("cache"):
        cache = info["cache"]
        m["engine.hit_share"] = _share(cache["hits"], cache["hits"] + cache["misses"])
        m["engine.evictions"] = cache["evictions"]
    if kind == "svc":
        reqs = ops_main
        wire = tracer.named("svc.wire", reqs)
        execs = tracer.named("svc.exec", reqs)
        decode = [a + b for a, b in zip(tracer.named("serialize.json", reqs),
                                        tracer.named("serialize.from_dict", reqs))]
        m["svc.exec_ms"] = _ms(execs)
        m["svc.client_decode_ms"] = _ms(decode)
        m["svc.overhead_ms"] = _ms([w - e for w, e in zip(wire, execs)])
        m["svc.response_bytes"] = info["response_bytes"]
        m["svc.rtt_over_exec"] = _share(_ms([w + d for w, d in zip(wire, decode)]), _ms(execs))
        m["svc.executed_share"] = _share(info["service"]["executed"], info["service"]["accepted"])
        m["serialize.to_dict_ms"] = per_op("serialize.to_dict")
        m["serialize.json_ms"] = per_op("serialize.json_dumps") + _ms(
            tracer.named("serialize.json", reqs))
        m["serialize.json_bytes"] = c["serialize.json_bytes"] / n
        m["serialize.from_dict_ms"] = _ms(tracer.named("serialize.from_dict", reqs))

    layers = tracer.self_by_name(ops_main)
    attributed = sum(v for k, v in layers.items() if k != "op")
    m["trace.coverage"] = _share(attributed, untraced_p50_s)
    m["trace.unattributed_ms"] = 1e3 * (untraced_p50_s - attributed)
    return m, {k: 1e3 * v for k, v in layers.items()}


# ------------------------------------------------------------------ main


def traced_library(args, spec, X, checker, tracer, untraced_p50):
    """Replays of a ``lib`` or ``sweep`` operation; returns coverage info."""
    counts = defaultdict(float)
    info = {}
    if spec["kind"] == "lib":
        # Three replays when they are cheap, else one.
        ops = [f"replay-{i}" for i in range(3 if untraced_p50 < 2.0 else 1)]
        for op_id in ops:
            checker.op(replay_lib(tracer, X, spec["requests"][0], op_id, counts))
        info["coverage_ops"] = ops
        return counts, info
    from repro.parallel import as_parallel_config, track_copy_bytes
    from repro.parallel.supervisor import collect_stats

    checker.op(replay_sweep(tracer, X, spec["requests"], "serial-0", counts))
    cfg = as_parallel_config(spec["workers"])
    par_counts = defaultdict(float)
    with track_copy_bytes() as copies, collect_stats() as stats:
        checker.op(replay_sweep(tracer, X, spec["requests"], "parallel-0", par_counts, cfg))
    info.update(
        coverage_ops=["parallel-0"], layer_ops=["serial-0"], copies=dict(copies),
        shard_retries=len(stats.retries),
    )
    return counts, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True)
    ap.add_argument("--oracle", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    X = np.load(args.data)
    setup_s = time.monotonic() - args.launch
    if args.probe:
        with open(args.out, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    ledger = Ledger()
    checker = Checker(Oracle(args.oracle), ledger)
    tracer = Tracer() if args.trace else None
    if spec["kind"] == "svc":
        out = run_service(args, spec, X, checker, ledger, tracer)
    else:
        out = run_library(args, spec, X, checker, ledger)
        out["setup_samples_s"] = [setup_s]
    if tracer is not None:
        untraced_p50 = statistics.median(out["latencies_s"])
        if spec["kind"] == "svc":
            traced = out.pop("traced")
            counts = traced["server_counts"]
            info = dict(
                traced, service=out["service"], cache=out["service"],
                coverage_ops=sorted({s["op"] for s in tracer.spans
                                     if str(s["op"]).startswith("req-")}),
                layer_ops=[f"server-{i}" for i in range(len(spec["requests"]))],
            )
        else:
            counts, info = traced_library(args, spec, X, checker, tracer, untraced_p50)
            info["cache"] = out.get("cache")
        metrics, layers = layer_metrics(args.workload, tracer, counts, untraced_p50, info)
        metrics["failed_share"] = _share(ledger.failed, ledger.attempted)
        out["per_layer"] = metrics
        out["layers_ms"] = layers
        out["untraced_p50_ms"] = 1e3 * untraced_p50
        if args.spans:
            tracer.dump(args.spans)
    out.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
