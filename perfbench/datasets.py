"""Generate, cache and annotate one workload's input.

Run as ``python3 perfbench/datasets.py <workload> <seed>`` from the root of
a checkout (with ``src`` on ``PYTHONPATH``); prints one JSON line
describing the prepared files.  Everything lives under
``perfbench/.cache``:

* ``<dataset>-g<GENERATOR_SEED>.npy`` — the generated point set, built once
  per checkout (``seed_spreader``'s per-point loop costs seconds at 200k
  points, and stays out of every timing);
* ``<dataset>-s<seed>.npy`` — that set translated by a ``seed``-drawn
  vector in ``[0, SHIFT)^d``: the file every benchmark process loads;
* ``<workload>-s<seed>.oracle.npz`` — brute-force ball counts for a seeded
  sample of points (see :func:`brute_force_sample`).

Each ``.npy`` has a ``.sha256`` sidecar; a cached file whose content no
longer matches it is rebuilt.  The digest is recorded in the benchmark's
output, so two commits can be shown to have measured identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import DATASETS, GENERATOR_SEED, WORKLOADS  # noqa: E402

#: Upper bound of the seeded per-coordinate translation (domain units).
SHIFT = 1000.0
#: Sampled points per workload, and nearest neighbours kept per sample.
SAMPLE = 256
KEEP = 64
#: Half of the sample is the sparsest points of a random pool (density
#: estimated against a random reference subset): that is where core flags,
#: noise verdicts and border memberships are decided by distance work
#: rather than by dense cells.
POOL = 8192
REFERENCE = 4_000
#: Squared distances this close (relatively) to eps^2 are ties the oracle
#: does not judge: the library decides them against a slackened boundary.
TIE = 1e-9


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _save_npy(path: str, arr: np.ndarray) -> str:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        np.save(fh, arr)
    digest = file_sha256(tmp)
    os.replace(tmp, path)
    with open(path + ".sha256", "w") as fh:
        fh.write(digest)
    return digest


def _cached_sha(path: str):
    """The recorded digest of ``path`` when its content still matches it."""
    try:
        with open(path + ".sha256") as fh:
            recorded = fh.read().strip()
    except OSError:
        return None
    if not os.path.exists(path) or file_sha256(path) != recorded:
        return None
    return recorded


def generate(name: str) -> np.ndarray:
    from repro.data import pamap2_like, seed_spreader

    spec = DATASETS[name]
    if spec["generator"] == "pamap2":
        return np.asarray(pamap2_like(spec["n"], seed=GENERATOR_SEED), dtype=np.float64)
    extra = {"noise_fraction": spec["noise_fraction"]} if "noise_fraction" in spec else {}
    data = seed_spreader(spec["n"], spec["d"], seed=GENERATOR_SEED, **extra)
    return np.asarray(data.points, dtype=np.float64)


def _pair_sq(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances, ``(len(queries), len(points))``, in difference form."""
    diff = points[None, :, :] - queries[:, None, :]
    return np.einsum("snd,snd->sn", diff, diff)


def brute_force_sample(points: np.ndarray, eps_values, seed: int) -> dict:
    """Ball counts of a seeded point sample, by brute force in difference form.

    The sample is seeded: half random, half the sparsest points of a
    random pool (see :data:`POOL`).  For each sampled point ``p`` and each
    ``eps``: ``|B(p, eps)|`` counted
    against all ``n`` points (``p`` included), whether any squared distance
    ties ``eps^2`` within :data:`TIE`, and ``p``'s :data:`KEEP` nearest
    other points with their squared distances.  Shares no arithmetic with
    the library's kernels: one subtraction per coordinate, summed squares,
    in sample chunks.
    """
    n = len(points)
    rng = np.random.default_rng([seed, 1])
    eps = np.asarray(sorted(set(float(e) for e in eps_values)))
    sq = eps * eps
    pool = rng.choice(n, size=min(POOL, n), replace=False)
    ref = points[rng.choice(n, size=min(REFERENCE, n), replace=False)]
    density = np.concatenate([
        _pair_sq(ref, points[pool[i:i + 64]]).__le__(sq[0]).sum(axis=1)
        for i in range(0, len(pool), 64)
    ])
    sparse = pool[np.argsort(density, kind="stable")[: SAMPLE // 2]]
    others = rng.choice(np.setdiff1d(pool, sparse), size=min(SAMPLE, n) - len(sparse),
                        replace=False)
    idx = np.sort(np.concatenate([sparse, others]))
    keep = min(KEEP, n - 1)
    counts = np.zeros((len(idx), len(eps)), dtype=np.int64)
    ties = np.zeros((len(idx), len(eps)), dtype=bool)
    nn_idx = np.zeros((len(idx), keep), dtype=np.int64)
    nn_d2 = np.zeros((len(idx), keep), dtype=np.float64)
    chunk = 8
    for start in range(0, len(idx), chunk):
        rows = idx[start:start + chunk]
        d2 = _pair_sq(points, points[rows])
        for j, s in enumerate(sq):
            counts[start:start + len(rows), j] = (d2 <= s).sum(axis=1)
            ties[start:start + len(rows), j] = (np.abs(d2 - s) <= TIE * s).any(axis=1)
        d2[np.arange(len(rows)), rows] = np.inf
        near = np.argpartition(d2, keep - 1, axis=1)[:, :keep]
        near_d2 = np.take_along_axis(d2, near, axis=1)
        order = np.argsort(near_d2, axis=1, kind="stable")
        nn_idx[start:start + len(rows)] = np.take_along_axis(near, order, axis=1)
        nn_d2[start:start + len(rows)] = np.take_along_axis(near_d2, order, axis=1)
    return {
        "sample": idx, "eps": eps, "counts": counts, "ties": ties,
        "nn_idx": nn_idx, "nn_d2": nn_d2,
    }


def prepare(root: str, workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    name = spec["dataset"]
    cache = os.path.join(root, "perfbench", ".cache")
    os.makedirs(cache, exist_ok=True)
    t0 = time.perf_counter()
    built = []

    base = os.path.join(cache, f"{name}-g{GENERATOR_SEED}.npy")
    if _cached_sha(base) is None:
        _save_npy(base, generate(name))
        built.append("generated")

    path = os.path.join(cache, f"{name}-s{seed}.npy")
    sha = _cached_sha(path)
    if sha is None:
        points = np.load(base)
        shift = np.random.default_rng([seed, 0]).uniform(0.0, SHIFT, size=points.shape[1])
        sha = _save_npy(path, points + shift)
        built.append("shifted")
    points = np.load(path)

    oracle = os.path.join(cache, f"{workload}-s{seed}.oracle.npz")
    if not os.path.exists(oracle):
        table = brute_force_sample(points, [r[0] for r in spec["requests"]], seed)
        tmp = f"{oracle}.tmp{os.getpid()}.npz"
        np.savez(tmp, **table)
        os.replace(tmp, oracle)
        built.append("oracle")
    return {
        "dataset": name,
        "path": os.path.relpath(path, root),
        "oracle": os.path.relpath(oracle, root),
        "sha256": sha,
        "n": int(points.shape[0]),
        "d": int(points.shape[1]),
        "generator_seed": GENERATOR_SEED,
        "built": built,
        "prepare_s": time.perf_counter() - t0,
    }


if __name__ == "__main__":
    print(json.dumps(prepare(os.getcwd(), sys.argv[1], int(sys.argv[2]))))
