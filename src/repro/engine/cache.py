"""The shared structure cache behind :class:`repro.engine.ClusteringEngine`.

The paper's algorithms all precompute *structures* — the grid ``T`` with
side ``eps / sqrt(d)``, spatial indexes for the expansion baselines, the
Lemma 5 counting hierarchies of the approximation — and then answer the
actual clustering question from them.  A service that clusters the same
dataset under many parameter settings rebuilds those structures over and
over; this module makes each of them a cacheable value keyed by

``(dataset_fingerprint, structure_kind, params...)``

so every structure is built **at most once per process** and found again by
any later request — including ``workers>1`` requests, whose core-range
threads read the same cached grid.

Eviction is LRU with two independent caps: an entry-count cap and a
byte-budget cap.  When a :class:`~repro.runtime.MemoryBudget` is attached,
the byte budget additionally tracks the run-time memory guard: the cache
never holds more than half the budget's limit, and sheds entries when the
process RSS crosses the limit's high-water mark — structure caching must
never be the reason a budgeted run dies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.runtime.memory import MemoryBudget, current_rss

#: Fraction of an attached memory budget the cache may occupy.
_BUDGET_SHARE = 0.5

#: RSS fraction of the budget limit above which the cache sheds entries.
_RSS_HIGH_WATER = 0.9


def estimate_structure_bytes(value: object) -> int:
    """Best-effort footprint estimate for a cached structure.

    Exact accounting is impossible for Python object graphs; the estimates
    here only need to be good enough for *relative* eviction decisions and
    to keep the byte caps meaningful.  Unknown objects cost a nominal 1 KB
    so a cache of unestimatable values still honours its entry cap.
    """
    points = getattr(value, "points", None)
    # Grids and flat Lemma 5 hierarchies account for their own arrays
    # exactly (a grid's include its cell adjacency once built).  This
    # check must precede the generic points-array branch below — both
    # also expose ``points``, but their footprint is their own arrays,
    # not a multiple of the point block.
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None and not isinstance(value, np.ndarray):
        return int(nbytes) + 512
    # Spatial indexes (KDTree / RTree / RStarTree) keep a point reference
    # plus node bookkeeping of the same order.
    if points is not None and isinstance(points, np.ndarray):
        return 2 * points.nbytes + 4096
    if isinstance(value, np.ndarray):
        return value.nbytes + 128
    if isinstance(value, dict):
        return sum(estimate_structure_bytes(v) for v in value.values()) + 4096
    if isinstance(value, tuple):
        return sum(estimate_structure_bytes(v) for v in value)
    return 1024


class StructureCache:
    """An LRU cache of clustering structures with byte-budget eviction.

    Parameters
    ----------
    max_entries:
        Entry-count cap; the least recently used entry is evicted first.
    max_mb:
        Optional byte cap (estimated; see :func:`estimate_structure_bytes`).
    memory:
        Optional :class:`~repro.runtime.MemoryBudget`.  When set, the
        cache also keeps its estimated footprint under half the budget's
        limit and sheds all but the most recent entry whenever the process
        RSS exceeds 90% of the limit.

    The cache is safe to share between threads (one lock around the map);
    worker *processes* never touch it — the cores fan-out reads only the
    grid and the ``known_core`` carry.
    """

    def __init__(
        self,
        max_entries: int = 32,
        max_mb: Optional[float] = None,
        memory: Optional[MemoryBudget] = None,
    ) -> None:
        if int(max_entries) < 1:
            raise ParameterError(f"max_entries must be >= 1; got {max_entries}")
        if max_mb is not None and not float(max_mb) > 0:
            raise ParameterError(f"max_mb must be positive (or None); got {max_mb}")
        self.max_entries = int(max_entries)
        self.max_mb = None if max_mb is None else float(max_mb)
        self.memory = memory
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0

    # -------------------------------------------------------------- lookup

    def get_or_build(
        self,
        key: Tuple,
        builder: Callable[[], object],
        nbytes: Optional[int] = None,
    ) -> object:
        """Return the cached value for ``key``, building it on a miss.

        ``builder`` runs *outside* the lock (structure builds are the
        expensive part and must not serialise unrelated lookups); if two
        threads race on the same key the first stored value wins and the
        loser's build is discarded — builds are deterministic, so either
        value is correct.  ``nbytes`` overrides the footprint estimate.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            self.misses += 1
        value = builder()
        cost = int(nbytes) if nbytes is not None else estimate_structure_bytes(value)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing[0]
            self._entries[key] = (value, cost)
            self._bytes += cost
            self._evict_over_caps()
        return value

    def get(self, key: Tuple) -> Optional[object]:
        """The cached value for ``key`` (or None), counted as a hit / miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def insert(self, key: Tuple, value: object, nbytes: Optional[int] = None) -> object:
        """Store a ready-made value (a harvested by-product of a run).

        Returns the stored value — the existing entry when ``key`` is
        already present (first store wins, as in :meth:`get_or_build`).
        Does not count as a miss: the preceding :meth:`get` already did.
        """
        cost = int(nbytes) if nbytes is not None else estimate_structure_bytes(value)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing[0]
            self._entries[key] = (value, cost)
            self._bytes += cost
            self._evict_over_caps()
        return value

    def peek(self, key: Tuple) -> Optional[object]:
        """The cached value for ``key`` (no build, no LRU touch, no stats)."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry[0]

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------ eviction

    def _cap_bytes(self) -> Optional[float]:
        caps = []
        if self.max_mb is not None:
            caps.append(self.max_mb * 1e6)
        if self.memory is not None and self.memory.limit_bytes is not None:
            caps.append(_BUDGET_SHARE * self.memory.limit_bytes)
        return min(caps) if caps else None

    def _evict_over_caps(self) -> None:
        """Evict LRU entries until every cap holds.  Caller holds the lock."""
        cap = self._cap_bytes()
        while len(self._entries) > 1 and (
            len(self._entries) > self.max_entries
            or (cap is not None and self._bytes > cap)
        ):
            self._evict_one()
        if (
            self.memory is not None
            and self.memory.limit_bytes is not None
            and current_rss() > _RSS_HIGH_WATER * self.memory.limit_bytes
        ):
            # RSS pressure: keep only the most recent entry (the one the
            # caller is actively using) and release everything else.
            while len(self._entries) > 1:
                self._evict_one()

    def _evict_one(self) -> None:
        _key, (_value, cost) = self._entries.popitem(last=False)
        self._bytes -= cost
        self.evictions += 1

    def set_budget(self, max_mb: Optional[float]) -> None:
        """Re-cap the byte budget at runtime, evicting down if needed.

        The service registry uses this to apply (and adjust) per-tenant
        quotas on live caches without dropping their warm entries wholesale:
        shrinking the cap sheds LRU entries until the new cap holds.
        """
        if max_mb is not None and not float(max_mb) > 0:
            raise ParameterError(f"max_mb must be positive (or None); got {max_mb}")
        with self._lock:
            self.max_mb = None if max_mb is None else float(max_mb)
            self._evict_over_caps()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # --------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        """Counters snapshot: hits / misses / evictions / entries / bytes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "estimated_bytes": self._bytes,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"StructureCache(entries={s['entries']}/{self.max_entries}, "
            f"hits={s['hits']}, misses={s['misses']}, evictions={s['evictions']})"
        )


#: The process-global default cache shared by engines that do not bring
#: their own (one dataset's structures remain visible to every engine
#: instance over the same points — the fingerprint keeps them apart).
_DEFAULT: Optional[StructureCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> StructureCache:
    """The process-wide :class:`StructureCache` (created on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = StructureCache()
        return _DEFAULT
