"""End-to-end, layer-attributed benchmark of the repro library.

    python3 perfbench/run.py --workload NAME|all --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout (it needs ``src/repro`` and
``BENCHMARK.json``).  Each workload (see ``perfbench/spec.py``) runs in
fresh processes:

1. ``datasets.py`` generates or reuses the cached input for ``--seed`` and
   its brute-force oracle sample (excluded from every timing);
2. with ``--trace 0``, ``workload.py --probe`` processes sample the set-up
   time, then one ``workload.py`` process runs the closed loop for
   ``--seconds`` and checks every result; the end-to-end metrics are
   printed with their units;
3. with ``--trace 1``, one ``workload.py --trace`` process runs the same
   loop untraced and then replays the operation through the layers'
   public functions inside spans; the per-layer metrics, a layer table and
   ``trace.coverage`` are printed, and the spans are written next to the
   results under ``perfbench/results``.

Child processes get no ``REPRO_*`` variables (library defaults are what
gets measured), one BLAS thread each, and ``src`` on ``PYTHONPATH``.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spec import SETUP_SAMPLES, WORKLOADS  # noqa: E402

#: Wall-clock budget of one workload run, all child processes included.
RUN_BUDGET_S = 170.0
#: Thread-count variables of the BLAS / OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd, env, root, deadline, capture=False) -> str:
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run budget exhausted before {cmd[1]}")
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} exceeded the run budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with status {proc.returncode}")
    return out or ""


def machine(root: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "repro", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": 1,
        "git_commit": commit, "src_sha256": h.hexdigest(),
    }


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it.

    With fewer than 20 samples that percentile lies below the median; the
    median is reported then, so the tail never reads better than p50.
    """
    lat = sorted(latencies)
    k = len(lat) - 10
    median = statistics.median(lat)
    if k < 1 or lat[k - 1] <= median:
        return median, 50.0
    return lat[k - 1], 100.0 * k / len(lat)


def end_to_end(res: dict) -> tuple:
    lat = res["latencies_s"]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "first_op_ms": 1e3 * res["first_op_s"],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "throughput_ops_s": len(lat) / res["window_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "latency_tail_ms": f"p{tail_pct:.1f} of {len(lat)} samples",
        "setup_s": f"median of {len(res['setup_samples_s'])}",
        "throughput_ops_s": f"{len(lat)} ops in {res['window_s']:.2f} s",
    }
    return metrics, notes


def run_workload(root, name, seed, seconds, trace, catalog) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(root)
    py = sys.executable
    kind = WORKLOADS[name]["kind"]
    prep = json.loads(run_child(
        [py, os.path.join(HERE, "datasets.py"), name, str(seed)], env, root, deadline,
        capture=True,
    ).strip().splitlines()[-1])
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-s{seed}-trace{int(trace)}")
    base = [py, os.path.join(HERE, "workload.py"), "--workload", name,
            "--data", prep["path"], "--oracle", prep["oracle"], "--seconds", str(seconds)]

    setups = []
    if not trace and kind != "svc":
        for _ in range(SETUP_SAMPLES[kind] - 1):
            launch = time.monotonic()
            run_child(base + ["--launch", repr(launch), "--out", stem + ".probe.json",
                              "--probe"], env, root, deadline)
            with open(stem + ".probe.json") as fh:
                setups.append(json.load(fh)["setup_s"])
    extra = ["--trace", "--spans", stem + ".spans.json"] if trace else []
    launch = time.monotonic()
    run_child(base + ["--launch", repr(launch), "--out", stem + ".raw.json"] + extra,
              env, root, deadline)
    with open(stem + ".raw.json") as fh:
        res = json.load(fh)
    res["setup_samples_s"] = setups + res["setup_samples_s"]
    if res.get("first_op_s") is None or not res.get("latencies_s"):
        raise BenchError(f"{name}: no successful operation; problems: {res.get('problems')}")

    if trace:
        units = {m["name"]: m["unit"] for m in catalog["per_layer"]}
        # A layer the workload does not exercise reports 0.
        notes = {k: "n/a here" for k in units if k not in res["per_layer"]}
        metrics = {k: res["per_layer"].get(k, 0.0) for k in units}
    else:
        metrics, notes = end_to_end(res)
        metrics["failed_share"] = res["failed"] / max(1, res["attempted"])
        units = {m["name"]: m["unit"] for m in catalog["end_to_end"]}
        units["failed_share"] = "fraction"
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "machine": machine(root), "dataset": prep, "notes": notes,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "attempted": res["attempted"], "failed": res["failed"],
        "problems": res["problems"], "raw": res,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    summary["path"] = os.path.relpath(stem + ".json", root)
    return summary


def print_report(s: dict) -> None:
    m = s["machine"]
    d = s["dataset"]
    print(f"== {s['workload']}  seed={s['seed']}  seconds={s['seconds']}  "
          f"trace={int(s['trace'])}")
    print(f"   machine: {m['nproc']} CPU(s) {m['cpu']}; python {m['python']}, numpy "
          f"{m['numpy']}, BLAS {m['blas']} x{m['blas_threads']} thread; commit "
          f"{m['git_commit'] or 'n/a'}; src sha256 {m['src_sha256'][:16]}")
    print(f"   dataset: {d['dataset']} n={d['n']} d={d['d']} sha256 {d['sha256'][:16]} "
          f"({', '.join(d['built']) or 'cached'})")
    if s["trace"]:
        raw = s["raw"]
        wall = raw["untraced_p50_ms"]
        print(f"   layer spans (self time per op, share of untraced p50 {wall:.1f} ms):")
        for span, ms in sorted(raw["layers_ms"].items(), key=lambda kv: -kv[1]):
            label = "(op glue, unattributed)" if span == "op" else span
            print(f"     {label:26s} {ms:10.2f} ms  {100 * ms / wall:6.1f}%")
    for name, metric in s["metrics"].items():
        note = s["notes"].get(name)
        print(f"   {name:26s} {metric['value']:14.4f} {metric['unit']:9s}"
              + (f" ({note})" if note else ""))
    if s["trace"]:
        print(f"   trace.coverage = {s['metrics']['trace.coverage']['value']:.3f}")
    if "server_exit" in s["raw"]:
        print(f"   server exit status: {s['raw']['server_exit']}")
    print(f"   operations: {s['attempted']} attempted, {s['failed']} failed; "
          f"results in {s['path']}")
    for problem in s["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout; src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        catalog = json.load(fh)
    seconds = args.seconds if args.seconds is not None else catalog["run_seconds"]
    wanted = [m["name"] for m in catalog["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    summaries = []
    for name in names:
        try:
            summaries.append(run_workload(root, name, args.seed, seconds, args.trace, catalog))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(summaries[-1])
        missing = [k for k in wanted if k not in summaries[-1]["metrics"]]
        if missing:
            print(f"error: {name} did not report {missing}", file=sys.stderr)
            return 1

    def pick(s):
        return {k: s["metrics"][k] for k in wanted}

    if len(summaries) == 1:
        metrics = pick(summaries[0])
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in pick(s).items()}
    failed = sum(s["failed"] for s in summaries)
    result = {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
