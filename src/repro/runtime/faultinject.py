"""Deterministic fault injection for the resilient runtime.

None of the robustness machinery — deadlines, memory guards, checkpoint
recovery, the degradation cascade — is trustworthy unless it can be
exercised in CI without real 12-hour runs, real OOM kills, or real ``kill
-9``.  This module makes every failure mode injectable under a context
manager:

>>> from repro.runtime.faultinject import inject_faults
>>> with inject_faults(clock_skew=3600.0, skew_after=10):
...     dbscan(points, eps, min_pts, time_budget=5.0)   # raises promptly
Traceback (most recent call last):
TimeoutExceeded: ...

Faults supported:

* **clock skips** — after ``skew_after`` clock reads, the runtime clock
  jumps forward by ``clock_skew`` seconds, so any active
  :class:`~repro.runtime.Deadline` sees its budget exhausted at the very
  next check;
* **allocation failures** — from the ``memory_fail_after``-th RSS poll
  onwards, :func:`repro.runtime.memory.current_rss` reports an absurdly
  large footprint, tripping any active
  :class:`~repro.runtime.MemoryBudget`;
* **checkpoint corruption** — every checkpoint file is damaged right
  after being written (truncated or overwritten with garbage), exercising
  the recover-from-corruption path of the resume logic.

Injection is process-global (the hooks live in the respective modules)
but strictly scoped to the ``with`` block, re-entrant use is rejected, and
all faults are counted on the returned plan for assertions.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.runtime import checkpoint as checkpoint_mod
from repro.runtime import clock as clock_mod
from repro.runtime import memory as memory_mod

#: Fake RSS reported once allocation failure triggers (4 EiB).
_HUGE_RSS = 1 << 62

#: Exit status of an injected crash (a SIGKILL shows up as 137 = 128 + 9).
_KILL_STATUS = 137


@dataclass
class FaultPlan:
    """An active set of injected faults plus hit counters."""

    clock_skew: float = 0.0
    skew_after: int = 0
    memory_fail_after: Optional[int] = None
    corrupt_checkpoints: bool = False
    corruption_mode: str = "truncate"  # or "garbage"

    clock_reads: int = field(default=0, init=False)
    memory_polls: int = field(default=0, init=False)
    checkpoints_corrupted: int = field(default=0, init=False)

    # ------------------------------------------------------------- hooks

    def _clock_hook(self, t: float) -> float:
        self.clock_reads += 1
        if self.clock_skew and self.clock_reads > self.skew_after:
            return t + self.clock_skew
        return t

    def _memory_hook(self) -> Optional[int]:
        self.memory_polls += 1
        if self.memory_fail_after is not None and self.memory_polls >= self.memory_fail_after:
            return _HUGE_RSS
        return None

    def _checkpoint_hook(self, path: str) -> None:
        if not self.corrupt_checkpoints:
            return
        self.checkpoints_corrupted += 1
        if self.corruption_mode == "garbage":
            with open(path, "wb") as fh:
                fh.write(b"\x00corrupt checkpoint\x00" * 7)
        else:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(size // 2, 1))


_active: Optional[FaultPlan] = None

#: Journal appends observed by :func:`maybe_crash_after_journal_write`
#: since process start (the env-driven crash hook is 1-based on this).
_journal_appends = 0


def maybe_crash_after_journal_write(fh=None) -> None:
    """Env-driven ``kill -9`` equivalent for registry-journal appends.

    The restart oracle needs a server that dies *mid-journal-write*, and
    the server under test is a subprocess — a ``with inject_faults(...)``
    block in the test process cannot reach it.  Two environment variables
    stage the crash instead:

    * ``REPRO_FAULT_JOURNAL_CRASH=N`` — ``os._exit(137)`` (the observable
      shape of ``kill -9``) immediately after the N-th journal append of
      the process;
    * ``REPRO_FAULT_JOURNAL_TORN=1`` — additionally flush half of a fake
      journal record (no CRC match, no trailing newline) before dying, so
      the survivor file ends in a genuinely torn write the next load must
      truncate and quarantine.

    Called by :meth:`repro.service.store.FileStore.append` with the open
    journal handle; a no-op unless the variables are set.
    """
    global _journal_appends
    spec = os.environ.get("REPRO_FAULT_JOURNAL_CRASH")
    if not spec:
        return
    try:
        after = int(spec)
    except ValueError:
        return
    _journal_appends += 1
    if _journal_appends < after:
        return
    if os.environ.get("REPRO_FAULT_JOURNAL_TORN") and fh is not None:
        fh.write('00000000 {"op":"register","name":"torn-mid-wr')
        fh.flush()
        os.fsync(fh.fileno())
    os._exit(_KILL_STATUS)


@contextmanager
def inject_faults(
    *,
    clock_skew: float = 0.0,
    skew_after: int = 0,
    memory_fail_after: Optional[int] = None,
    corrupt_checkpoints: bool = False,
    corruption_mode: str = "truncate",
) -> Iterator[FaultPlan]:
    """Inject the given faults for the duration of the ``with`` block.

    Parameters
    ----------
    clock_skew:
        Seconds the runtime clock jumps forward (0 disables).
    skew_after:
        Number of clock reads before the jump applies (0 = immediately).
    memory_fail_after:
        RSS poll number (1-based) from which allocation failure is
        simulated; ``None`` disables.
    corrupt_checkpoints:
        Damage every checkpoint file immediately after it is written.
    corruption_mode:
        ``"truncate"`` (cut the file in half) or ``"garbage"`` (overwrite
        with non-npz bytes).
    """
    global _active
    if _active is not None:
        raise RuntimeError("fault injection does not nest")
    if corruption_mode not in ("truncate", "garbage"):
        raise ValueError(f"unknown corruption_mode {corruption_mode!r}")
    plan = FaultPlan(
        clock_skew=clock_skew,
        skew_after=skew_after,
        memory_fail_after=memory_fail_after,
        corrupt_checkpoints=corrupt_checkpoints,
        corruption_mode=corruption_mode,
    )
    _active = plan
    if clock_skew:
        clock_mod.set_fault_hook(plan._clock_hook)
    if memory_fail_after is not None:
        memory_mod.set_fault_hook(plan._memory_hook)
    if corrupt_checkpoints:
        checkpoint_mod.set_fault_hook(plan._checkpoint_hook)
    try:
        yield plan
    finally:
        _active = None
        clock_mod.set_fault_hook(None)
        memory_mod.set_fault_hook(None)
        checkpoint_mod.set_fault_hook(None)
