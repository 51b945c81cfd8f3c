"""Memory budgets: up-front footprint estimates plus RSS polling.

Two complementary guards, both raising
:class:`~repro.errors.MemoryBudgetExceeded`:

* **estimates** — before a phase allocates, the pipeline charges a closed-
  form footprint estimate (grid arrays, neighbour lists, distance-matrix
  chunks) against the budget, so a run that *cannot* fit fails in
  milliseconds instead of after thrashing;
* **polls** — at phase boundaries the guard reads the process RSS and
  raises if it crossed the budget, catching estimation error and
  allocations the estimates do not model.

RSS is read from ``/proc/self/status`` (Linux) with a
:func:`resource.getrusage` fallback, so no third-party dependency is
needed; platforms where neither works simply skip the polling guard.
"""

from __future__ import annotations

import os
import resource
from typing import Callable, Optional

from repro.errors import MemoryBudgetExceeded
from repro.runtime import clock
from repro.utils.log import get_logger

_log = get_logger("runtime.memory")

#: Optional fake-RSS provider installed by the fault-injection harness.
#: When it returns a number, that value is used instead of the real RSS.
_fault_hook: Optional[Callable[[], Optional[int]]] = None


def set_fault_hook(hook: Optional[Callable[[], Optional[int]]]) -> None:
    """Install (or with ``None`` remove) the RSS fault hook."""
    global _fault_hook
    _fault_hook = hook


try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError):  # pragma: no cover - exotic platforms
    _PAGE_SIZE = 4096

#: Kept-open handle on /proc/self/statm: rewind+read is ~3x cheaper than
#: open+read per poll, and procfs reads always reflect the current state.
_statm = None


def _read_statm() -> Optional[int]:
    global _statm
    try:
        if _statm is None:
            _statm = open("/proc/self/statm", "rb")
        _statm.seek(0)
        return int(_statm.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        if _statm is not None:
            try:
                _statm.close()
            except OSError:  # pragma: no cover
                pass
            _statm = None
        return None


def current_rss() -> int:
    """Resident set size of this process in bytes (0 if unknown)."""
    if _fault_hook is not None:
        fake = _fault_hook()
        if fake is not None:
            return int(fake)
    rss = _read_statm()
    if rss is not None:
        return rss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        # ru_maxrss is the *peak* RSS in KiB on Linux — an over-estimate of
        # the current footprint, which errs on the safe side for a guard.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        return 0


def estimate_grid_bytes(n: int, d: int) -> int:
    """Rough footprint of :class:`repro.grid.cells.Grid` over ``(n, d)`` points.

    Counts the float64 point array, the int64 cell-coordinate block the
    build sorts, and the per-point ``order`` / ``point_cell`` arrays plus
    the build's sort temporaries.  The constant is deliberately generous —
    the guard should trip *before* the allocation, not after.
    """
    return 16 * n * d + 96 * n + 4096


class MemoryBudget:
    """A per-run memory budget, in bytes, over the process RSS.

    Parameters
    ----------
    limit_mb:
        Budget in megabytes.  ``None`` disables both guards (every call
        becomes a no-op), mirroring ``Deadline(None)``.
    """

    __slots__ = ("limit_bytes", "_last_poll")

    #: Minimum seconds between RSS polls in :meth:`check`.  The polling
    #: guard exists to catch runaway growth on *long* runs; phases shorter
    #: than this cannot move the RSS meaningfully, and skipping their
    #: polls keeps the guard's overhead invisible on millisecond workloads
    #: (estimates via :meth:`charge_estimate` are never rate-limited).
    POLL_INTERVAL = 0.05

    def __init__(self, limit_mb: Optional[float]) -> None:
        self.limit_bytes = None if limit_mb is None else float(limit_mb) * 1e6
        self._last_poll = clock.now()

    @classmethod
    def unbounded(cls) -> "MemoryBudget":
        return cls(None)

    def charge_estimate(self, n_bytes: int, phase: str = "") -> None:
        """Fail fast when a phase's estimated footprint overshoots the budget.

        The estimate is charged against the *headroom* left above the
        current RSS, so a process already near its budget cannot start a
        large phase.
        """
        if self.limit_bytes is None:
            return
        projected = current_rss() + n_bytes
        if projected > self.limit_bytes:
            raise MemoryBudgetExceeded(projected, self.limit_bytes, phase or "estimate")

    def check(self, phase: str = "") -> None:
        """Poll the process RSS and raise if it crossed the budget."""
        if self.limit_bytes is None:
            return
        now = clock.now()
        if now - self._last_poll < self.POLL_INTERVAL:
            return
        self._last_poll = now
        rss = current_rss()
        if rss > self.limit_bytes:
            raise MemoryBudgetExceeded(rss, self.limit_bytes, phase)

    def __repr__(self) -> str:
        if self.limit_bytes is None:
            return "MemoryBudget(unbounded)"
        return f"MemoryBudget(limit={self.limit_bytes / 1e6:.1f}MB)"


def as_memory_budget(
    memory_budget_mb: Optional[float] = None,
    memory: Optional[MemoryBudget] = None,
) -> Optional[MemoryBudget]:
    """Normalise the ``(memory_budget_mb, memory)`` argument pair."""
    if memory is not None:
        return memory
    if memory_budget_mb is not None:
        return MemoryBudget(memory_budget_mb)
    return None
