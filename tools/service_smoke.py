"""End-to-end smoke of a live ``repro-dbscan serve`` process.

Starts the TCP server as a real subprocess, then drives it the way an
impatient fleet would and asserts the service contract from the outside:

* concurrent **duplicate** requests coalesce — the ``datasets`` op's
  per-engine run counters show exactly one execution, and every response
  carries identical clusters;
* responses always record ``{tier, reason}``;
* failures come back structured: an unknown dataset answers
  ``unknown-dataset``, an already-expired deadline answers ``overload``
  with ``reason: deadline-expired`` — and the connection survives both;
* malformed JSON answers a ``parameter`` error instead of killing the
  stream;
* ``shutdown`` stops the server with exit code 0.

Used by the CI ``service-smoke`` job; run locally with::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
import sys
import tempfile
import threading


BURST = 8


def start_server(dataset_path: str) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--dataset", f"toy={dataset_path}", "--max-queue", "32"],
        stderr=subprocess.PIPE,
        text=True,
    )
    for line in proc.stderr:
        match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    raise AssertionError("server exited without printing its banner")


def request(port: int, payload: dict, out: list, slot: int) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        stream = sock.makefile("rw")
        stream.write(json.dumps(payload) + "\n")
        stream.flush()
        out[slot] = json.loads(stream.readline())


def main() -> int:
    import numpy as np

    with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as tmp:
        np.savetxt(tmp.name, np.random.default_rng(0).random((2000, 2)),
                   delimiter=",")
        proc, port = start_server(tmp.name)
    try:
        # One warm-up request, so the burst measures coalescing, not racing
        # against structure building.
        probe = [None]
        request(port, {"id": 0, "op": "cluster", "dataset": "toy",
                       "eps": 0.05, "min_pts": 10}, probe, 0)
        assert probe[0]["ok"], probe[0]
        assert probe[0]["result"]["tier"] and probe[0]["result"]["reason"]

        # The duplicate burst, truly concurrent: one connection per thread.
        responses = [None] * BURST
        threads = [
            threading.Thread(
                target=request,
                args=(port, {"id": i, "op": "cluster", "dataset": "toy",
                             "eps": 0.07, "min_pts": 10}, responses, i),
            )
            for i in range(BURST)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert all(r is not None for r in responses), "a request hung"
        assert all(r["ok"] for r in responses), responses
        fields = ("labels", "overflow_points", "overflow_clusters", "core_mask")
        first = responses[0]["result"]["clustering"]
        for r in responses[1:]:
            clustering = r["result"]["clustering"]
            assert all(clustering[f] == first[f] for f in fields), \
                "coalesced responses differ"
        coalesced = sum(bool(r["result"]["coalesced"]) for r in responses)

        # Exactly-once, read from the engine's own counters.
        info = [None]
        request(port, {"id": 100, "op": "datasets"}, info, 0)
        runs = info[0]["result"]["toy"]["runs"]
        total_runs = sum(runs.values())
        assert total_runs == 2, f"expected 2 engine runs (probe + burst), got {runs}"

        stats = [None]
        request(port, {"id": 101, "op": "stats"}, stats, 0)
        served = stats[0]["result"]
        assert served["executed"] == 2, served
        assert served["coalesced"] == coalesced == BURST - 1, served
        assert served["rejected"] == 0, served

        # Structured failures, connection intact afterwards.
        bad = [None, None, None]
        request(port, {"id": 200, "op": "cluster", "dataset": "missing",
                       "eps": 1.0, "min_pts": 5}, bad, 0)
        assert not bad[0]["ok"] and bad[0]["error"]["code"] == "unknown-dataset"
        request(port, {"id": 201, "op": "cluster", "dataset": "toy",
                       "eps": 0.05, "min_pts": 10, "time_budget": 1e-9},
                bad, 1)
        assert not bad[1]["ok"] and bad[1]["error"]["code"] == "overload"
        assert bad[1]["error"]["reason"] == "deadline-expired"
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            stream = sock.makefile("rw")
            stream.write("this is not json\n")
            stream.flush()
            garbled = json.loads(stream.readline())
            assert not garbled["ok"] and garbled["error"]["code"] == "parameter"
            # Same connection still serves real requests.
            stream.write(json.dumps({"id": 202, "op": "ping"}) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"]

        down = [None]
        request(port, {"id": 300, "op": "shutdown"}, down, 0)
        assert down[0]["ok"], down[0]
        code = proc.wait(timeout=30)
        assert code == 0, f"server exited {code}"
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
    print(f"service smoke OK: {BURST} duplicates -> 1 execution "
          f"({coalesced} coalesced), structured errors, clean shutdown")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
