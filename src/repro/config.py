"""Paper constants and reproduction-scale configuration.

The SIGMOD'15 evaluation (Table 1 and Section 5.1) fixes a normalised data
domain of ``[0, 1e5]`` per dimension, ``MinPts = 100``, cardinalities from
100k to 10m, dimensionalities 3/5/7, ``eps`` swept from 5000 up to each
dataset's *collapsing radius*, and ``rho`` in ``{0.001, 0.01, ..., 0.1}``.

The authors ran C++ on a 3.2 GHz machine; this reproduction is pure Python,
so the benchmark harness scales cardinality down by default while keeping
every other parameter paper-faithful.  Set the environment variable
``REPRO_SCALE`` to a positive float to raise (or lower) the workload sizes:
``REPRO_SCALE=1`` keeps the fast defaults, ``REPRO_SCALE=10`` multiplies all
benchmark cardinalities by ten, and so on.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

#: Extent of the normalised data domain used throughout the paper: every
#: coordinate lies in ``[0, DOMAIN_SIZE]`` (Section 5.1).
DOMAIN_SIZE = 100_000.0

#: MinPts used for every experiment except the 2D visualisation (Section 5.1).
PAPER_MINPTS = 100

#: MinPts for the 2D visualisation experiment of Figure 9 (Section 5.2).
FIG9_MINPTS = 20

#: The default approximation parameter recommended by the paper (Section 5.2).
DEFAULT_RHO = 0.001

#: The rho grid of Table 1.
PAPER_RHO_GRID = (0.001, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1)

#: Smallest eps of every sweep (Table 1).
PAPER_EPS_MIN = 5000.0

#: Cardinalities of Table 1 (synthetic data), at paper scale.
PAPER_CARDINALITIES = (100_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000)

#: Default synthetic cardinality of Table 1 (bold): 2 million points.
PAPER_DEFAULT_N = 2_000_000

#: Dimensionalities of Table 1.
PAPER_DIMENSIONS = (3, 5, 7)

#: Seed-spreader constants of Section 5.1.
SS_COUNTER_RESET = 100
SS_VICINITY_RADIUS = 100.0
SS_NOISE_FRACTION = 1.0 / 10_000
SS_EXPECTED_RESTARTS = 10

#: eps values of the Figure 9 visual-comparison experiment.
FIG9_EPS_VALUES = (5000.0, 11300.0, 12200.0)

#: rho values of the Figure 9 visual-comparison experiment.
FIG9_RHO_VALUES = (0.001, 0.01, 0.1)


def _env_int(name: str, default: int, minimum: int) -> int:
    """Strictly parsed integer environment default.

    Unset (or empty) falls back to ``default``; anything set but
    unparsable or below ``minimum`` raises
    :class:`~repro.errors.ConfigError` naming the variable, so a broken
    deployment fails loudly at call time instead of silently running with
    a surprise fallback.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"invalid {name}={raw!r}: expected an integer >= {minimum}"
        ) from None
    if value < minimum:
        raise ConfigError(f"invalid {name}={raw!r}: must be >= {minimum}")
    return value


def default_workers() -> int:
    """Default cores fan-out thread count from the ``REPRO_WORKERS`` env variable.

    ``1`` (the safe serial default) when unset; public entry points fall
    back to this whenever ``workers=None`` is passed, so a deployment can
    turn the fleet parallel without touching call sites.  A set-but-invalid
    value (``"abc"``, ``0``, negative) raises
    :class:`~repro.errors.ConfigError`.
    """
    return _env_int("REPRO_WORKERS", 1, 1)


def parallel_min_points() -> int:
    """Cores fan-out gate from ``REPRO_PARALLEL_MIN_POINTS``, in open queries.

    A core plan leaving fewer open counting queries (not input points) is
    counted in the calling thread.  The default keeps every benchmark plan
    serial; ``docs/PARALLEL.md`` ("Phase by phase") times the thread
    fan-out against serial on both sides of it.  CI sets 0 to force every
    plan with work through the fan-out.  A set-but-invalid value raises
    :class:`~repro.errors.ConfigError`.
    """
    return _env_int("REPRO_PARALLEL_MIN_POINTS", 150_000, 0)


def chunk_budget() -> int:
    """Pairwise-kernel chunk budget from ``REPRO_CHUNK_BUDGET``.

    The number of matrix entries one chunk of a pairwise distance
    computation may hold (see :mod:`repro.geometry.distance`); the default
    of 4 million float64 entries keeps a chunk around 32 MB.  Lower it on
    memory-starved deployments, raise it when the default chunking shows
    up in profiles.  A set-but-invalid value (``"abc"``, ``0``, negative)
    raises :class:`~repro.errors.ConfigError` naming the variable.
    """
    return _env_int("REPRO_CHUNK_BUDGET", 4_000_000, 1)


def scale_factor() -> float:
    """Workload multiplier taken from the ``REPRO_SCALE`` environment variable."""
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = float(raw)
    except ValueError:
        return 1.0
    return value if value > 0 else 1.0


def scaled(n: int, *, base_divisor: int = 100) -> int:
    """Scale a paper cardinality down to reproduction size.

    ``n`` is the paper's cardinality; the default divisor of 100 maps the
    paper's 2m-point default to 20k points, which a pure-Python run handles
    in seconds.  ``REPRO_SCALE`` multiplies the result.
    """
    value = int(n / base_divisor * scale_factor())
    return max(value, 100)
