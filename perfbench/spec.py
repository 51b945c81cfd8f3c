"""The benchmark's workloads and datasets, shared by every benchmark process.

Nothing here imports the library, so the orchestrator can read the table
before it has checked that the sources are present.

Each workload clusters one dataset.  A dataset is generated once per
checkout with the repository's own generators from ``GENERATOR_SEED`` and
then translated by a vector drawn from the run's ``--seed``: every seed
gives a different input (another grid alignment, fingerprint and oracle
sample) with nearly the same per-operation work.  Independent generator
draws change the work itself by more than any regression bound
(``approx_dbscan`` on ``pamap2_like(50_000, seed=s)`` took 5.1 s to 8.4 s
over seeds 0-4 on a 2-CPU box), which would bury every regression in input
noise.
"""

from __future__ import annotations

#: Generator seed of every dataset's point set (``--seed`` translates it).
GENERATOR_SEED = 7

#: name -> generator arguments.
DATASETS = {
    "ss3d-200k": {"generator": "seed_spreader", "n": 200_000, "d": 3},
    "pamap2-50k": {"generator": "pamap2", "n": 50_000, "d": 4},
    "ss5d-100k-noise5": {
        "generator": "seed_spreader", "n": 100_000, "d": 5, "noise_fraction": 0.05,
    },
    "ss3d-100k": {"generator": "seed_spreader", "n": 100_000, "d": 3},
}

#: The service mix: eps x {exact MinPts 10, exact MinPts 20, rho=0.001 MinPts 10}.
SVC_MIX = [
    (eps, min_pts, rho)
    for eps in (300.0, 400.0, 500.0, 700.0)
    for (min_pts, rho) in ((10, None), (20, None), (10, 0.001))
]

#: name -> how one operation runs.  ``requests`` lists every
#: ``(eps, min_pts, rho)`` whose results the oracle checks (``rho`` None
#: means exact DBSCAN).
WORKLOADS = {
    # Result assembly dominates; the cells are mostly dense.
    "lib-ss3d-coarse": {
        "kind": "lib", "dataset": "ss3d-200k", "requests": [(500.0, 10, None)],
    },
    # The kernels dominate, with real border work; rho-approx through
    # FlatHierarchy.
    "lib-pamap2-approx": {
        "kind": "lib", "dataset": "pamap2-50k", "requests": [(5000.0, 20, 0.001)],
    },
    # Sweep carry, high-d grids, the 2-worker executor and its transport.
    "sweep-ss5d-w2": {
        "kind": "sweep", "dataset": "ss5d-100k-noise5", "workers": 2,
        "requests": [(eps, 10, None) for eps in (1000.0, 1500.0, 2000.0, 3000.0, 4000.0)],
    },
    # Service front-end, warm engine cache, JSON over TCP, client decode.
    "svc-tcp-mix": {
        "kind": "svc", "dataset": "ss3d-100k", "connections": 2, "requests": SVC_MIX,
    },
}

#: Setup-time samples per run (the median is reported).
SETUP_SAMPLES = {"lib": 5, "sweep": 5, "svc": 3}
