"""Crash-recovery and observability smoke of a persistent ``serve``.

Starts ``repro-dbscan serve`` with a ``--store-dir`` and a metrics
endpoint, then asserts the durable-service contract from the outside:

* datasets registered over the wire survive a full process restart —
  the second server recovers the catalog from the snapshot + journal
  and replays the same request to an identical clustering;
* tenant configuration (``--tenant-weight`` and the ``tenant`` op) is
  journaled and read back after restart;
* ``/metrics`` serves Prometheus text (counters move with traffic) and
  ``/healthz`` answers 200 while serving;
* SIGTERM drains gracefully: in-flight work finishes, the journal is
  flushed and compacted into a snapshot, and the process exits 0.

Used by the CI ``service-smoke`` job; run locally with::

    PYTHONPATH=src python tools/restart_smoke.py
"""

from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path


def start_server(store_dir: str, *extra: str):
    """Start a persistent server; return (proc, serve_port, metrics_port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--metrics-port", "0", "--store-dir", store_dir,
         "--tenant-weight", "gold=4", *extra],
        stderr=subprocess.PIPE,
        text=True,
    )
    metrics_port = None
    for line in proc.stderr:
        match = re.search(r"metrics on http://127\.0\.0\.1:(\d+)/metrics", line)
        if match:
            metrics_port = int(match.group(1))
        match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
        if match:
            assert metrics_port is not None, "no metrics banner before serving"
            return proc, int(match.group(1)), metrics_port
    raise AssertionError("server exited without printing its banner")


def request(port: int, payload: dict) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        stream = sock.makefile("rw")
        stream.write(json.dumps(payload) + "\n")
        stream.flush()
        return json.loads(stream.readline())


def http_get(port: int, path: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry a body
        return err.code, err.read().decode()


def main() -> int:
    import numpy as np

    tmp = Path(tempfile.mkdtemp(prefix="repro-restart-smoke-"))
    store = str(tmp / "store")
    csv = tmp / "toy.csv"
    np.savetxt(csv, np.random.default_rng(0).random((2000, 2)), delimiter=",")
    run = {"op": "cluster", "dataset": "toy", "eps": 0.05, "min_pts": 10}

    # ---- first life: register, cluster, observe, drain ----------------
    proc, port, mport = start_server(store)
    try:
        reg = request(port, {"id": 1, "op": "register", "name": "toy",
                             "path": str(csv)})
        assert reg["ok"], reg
        first = request(port, {"id": 2, **run})
        assert first["ok"], first
        baseline = first["result"]["clustering"]

        ten = request(port, {"id": 3, "op": "tenant", "name": "silver",
                             "weight": 2.0, "max_queue": 9})
        assert ten["ok"] and ten["result"]["weight"] == 2.0, ten

        status, body = http_get(mport, "/metrics")
        assert status == 200, (status, body)
        assert 'repro_service_requests_total{outcome="executed"} 1' in body, body
        assert "repro_service_draining 0" in body, body
        assert "repro_service_datasets 1" in body, body
        status, health = http_get(mport, "/healthz")
        assert status == 200 and json.loads(health)["ok"], (status, health)

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0, f"drain exited {code}"
        assert (Path(store) / "registry.json").exists(), \
            "drain did not compact a snapshot"
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()

    # ---- second life: recover, replay, verify tenant config -----------
    proc, port, mport = start_server(store)
    try:
        names = request(port, {"id": 10, "op": "datasets"})
        assert names["ok"] and set(names["result"]) == {"toy"}, names

        replay = request(port, {"id": 11, **run})
        assert replay["ok"], replay
        recovered = replay["result"]["clustering"]
        for field in ("n", "labels", "overflow_points", "overflow_clusters",
                      "core_mask"):
            assert recovered[field] == baseline[field], \
                f"replay diverged after restart ({field})"

        silver = request(port, {"id": 12, "op": "tenant", "name": "silver"})
        assert silver["ok"] and silver["result"]["weight"] == 2.0, silver
        assert silver["result"]["max_queue"] == 9, silver
        gold = request(port, {"id": 13, "op": "tenant", "name": "gold"})
        assert gold["ok"] and gold["result"]["weight"] == 4.0, gold

        status, body = http_get(mport, "/metrics")
        assert status == 200 and "repro_service_datasets 1" in body, body

        down = request(port, {"id": 14, "op": "shutdown"})
        assert down["ok"], down
        code = proc.wait(timeout=30)
        assert code == 0, f"server exited {code}"
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()

    print("restart smoke OK: catalog + tenant config survived restart, "
          "replay identical, metrics scraped, SIGTERM drained to exit 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
