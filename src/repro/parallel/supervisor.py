"""An empty run ledger, kept for the callers of the retired worker supervisor.

The cores fan-out runs on threads of the calling process
(:mod:`repro.parallel.executor`) and an error in a range propagates to the
caller, so no range is ever re-run and there is nothing to supervise.
``perfbench/workload.py`` still opens :func:`collect_stats` around its
parallel replays and reports ``len(stats.retries)``, which is always 0.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


@dataclass
class SupervisorStats:
    """A ledger of ranges re-run after a fault; always empty."""

    retries: List[Dict[str, object]] = field(default_factory=list)


@contextmanager
def collect_stats() -> Iterator[SupervisorStats]:
    """Yield a fresh, empty :class:`SupervisorStats`."""
    yield SupervisorStats()
