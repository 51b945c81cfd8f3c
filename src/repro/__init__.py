"""repro — a full reproduction of Gan & Tao, SIGMOD 2015:
"DBSCAN Revisited: Mis-Claim, Un-Fixability, and Approximation".

Highlights
----------
* :func:`repro.dbscan` — exact DBSCAN with every algorithm the paper
  evaluates (the new grid+BCP algorithm of Theorem 2, KDD96, CIT08,
  Gunawan's 2D algorithm, and a brute-force oracle).
* :func:`repro.approx_dbscan` — rho-approximate DBSCAN (Theorem 4),
  expected linear time, with the sandwich quality guarantee of Theorem 3.
* :func:`repro.run_resilient` — the degradation cascade of
  :mod:`repro.runtime`: exact under budget, else rho-approximate, else a
  subsampled run — degrade, don't die (see docs/ROBUSTNESS.md).
* :mod:`repro.parallel` — the thread fan-out behind the ``workers=``
  argument: core labeling counts its ranges on it, with output identical
  to the serial run (see docs/PARALLEL.md).
* :class:`repro.ClusteringEngine` — a reusable per-dataset service:
  structures (grids, indexes, core masks, Lemma 5 hierarchies) are cached
  across calls, and multi-eps parameter sweeps run incrementally with
  byte-identical outputs (see docs/PERFORMANCE.md).
* :mod:`repro.hardness` — executable Lemma 4: the reduction that makes any
  fast DBSCAN algorithm solve the USEC problem.
* :mod:`repro.data` — the seed-spreader generator of Section 5.1 and
  synthetic stand-ins for the paper's real datasets.
* :mod:`repro.evaluation` — cluster-set comparison, maximum-legal-rho
  sweeps (Figure 10), collapsing-radius search, timing harness.
"""

from repro.api import (
    EXACT_ALGORITHMS,
    ResiliencePolicy,
    approx_dbscan,
    dbscan,
    run_resilient,
    sampled_dbscan,
)
from repro.core.params import ApproxParams, DBSCANParams
from repro.core.result import NOISE, Clustering
from repro.engine import ClusteringEngine, StructureCache
from repro.parallel import ParallelConfig
from repro.errors import (
    AlgorithmError,
    CheckpointError,
    DataError,
    MemoryBudgetExceeded,
    ParameterError,
    ReproError,
    TimeoutExceeded,
)
from repro.runtime import Deadline, MemoryBudget

__version__ = "1.1.0"

__all__ = [
    "dbscan",
    "approx_dbscan",
    "run_resilient",
    "sampled_dbscan",
    "ResiliencePolicy",
    "ClusteringEngine",
    "StructureCache",
    "Deadline",
    "MemoryBudget",
    "ParallelConfig",
    "Clustering",
    "DBSCANParams",
    "ApproxParams",
    "NOISE",
    "EXACT_ALGORITHMS",
    "ReproError",
    "ParameterError",
    "DataError",
    "AlgorithmError",
    "TimeoutExceeded",
    "MemoryBudgetExceeded",
    "CheckpointError",
    "__version__",
]
