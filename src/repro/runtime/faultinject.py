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
  the recover-from-corruption path of the resume logic;
* **worker faults** — tasks of the supervised parallel pipeline
  (:mod:`repro.parallel.supervisor`), addressed as ``(phase, shard_seq)``,
  can be made to **kill** their worker process (``os._exit``, the
  observable shape of an OOM kill or segfault), **hang** it
  (a long sleep the supervisor's soft timeout must catch), or be
  **poisoned** (raise on every worker attempt while computing fine in the
  parent, where the supervisor finishes a faulted fan-out).  Kill and
  hang fire a bounded number of times, coordinated across processes
  through token files in a temp directory, so tests can count firings.

Injection is process-global (the hooks live in the respective modules)
but strictly scoped to the ``with`` block, re-entrant use is rejected, and
all faults are counted on the returned plan for assertions.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from repro.runtime import checkpoint as checkpoint_mod
from repro.runtime import clock as clock_mod
from repro.runtime import memory as memory_mod

#: Fake RSS reported once allocation failure triggers (4 EiB).
_HUGE_RSS = 1 << 62

#: Exit status used for injected worker kills (the kernel OOM killer's
#: SIGKILL shows up as 137 = 128 + 9).
_KILL_STATUS = 137

ShardAddr = Tuple[str, int]


class InjectedWorkerFault(RuntimeError):
    """The failure raised by a poisoned shard inside a worker process."""


@dataclass(frozen=True)
class WorkerFaultSpec:
    """Picklable description of worker faults, shipped in phase payloads.

    The executor snapshots the active plan's spec into every pool payload
    (:func:`worker_fault_spec`), so the spec crosses the process boundary
    under both ``fork`` and ``spawn``.  ``token_dir`` holds the once-only
    coordination files for kill / hang faults; poison needs none — it is
    deterministic on purpose and fires on every *worker* attempt.
    """

    kill_shards: Tuple[ShardAddr, ...] = ()
    hang_shards: Tuple[ShardAddr, ...] = ()
    poison_shards: Tuple[ShardAddr, ...] = ()
    times: int = 1
    hang_seconds: float = 30.0
    token_dir: str = ""


def _claim(spec: WorkerFaultSpec, name: str, phase: str, seq: int) -> bool:
    """Atomically claim one of the fault's ``times`` firings (cross-process)."""
    for i in range(max(1, int(spec.times))):
        path = os.path.join(spec.token_dir, f"{name}-{phase}-{seq}-{i}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


def trigger_worker_fault(spec: WorkerFaultSpec, phase: str, seq: int) -> None:
    """Fire any fault addressed at ``(phase, seq)``; called from workers only."""
    addr = (phase, int(seq))
    if addr in spec.kill_shards and _claim(spec, "kill", phase, seq):
        os._exit(_KILL_STATUS)
    if addr in spec.hang_shards and _claim(spec, "hang", phase, seq):
        time.sleep(spec.hang_seconds)
    if addr in spec.poison_shards:
        raise InjectedWorkerFault(
            f"injected poison: shard {seq} of phase {phase!r} always fails in workers"
        )


def worker_fault_spec() -> Optional[WorkerFaultSpec]:
    """The active plan's worker-fault spec (``None`` outside injection)."""
    if _active is None or _active.worker_faults is None:
        return None
    return _active.worker_faults


@dataclass
class FaultPlan:
    """An active set of injected faults plus hit counters."""

    clock_skew: float = 0.0
    skew_after: int = 0
    memory_fail_after: Optional[int] = None
    corrupt_checkpoints: bool = False
    corruption_mode: str = "truncate"  # or "garbage"
    worker_faults: Optional[WorkerFaultSpec] = None

    clock_reads: int = field(default=0, init=False)
    memory_polls: int = field(default=0, init=False)
    checkpoints_corrupted: int = field(default=0, init=False)

    def worker_faults_fired(self, name: Optional[str] = None) -> int:
        """Count of claimed kill/hang firings (from the shared token dir).

        ``name`` filters to ``"kill"`` or ``"hang"``; poison firings are
        unbounded by design and not counted here.
        """
        spec = self.worker_faults
        if spec is None or not spec.token_dir or not os.path.isdir(spec.token_dir):
            return 0
        tokens = os.listdir(spec.token_dir)
        if name is not None:
            tokens = [t for t in tokens if t.startswith(f"{name}-")]
        return len(tokens)

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
    kill_shards: Sequence[ShardAddr] = (),
    hang_shards: Sequence[ShardAddr] = (),
    poison_shards: Sequence[ShardAddr] = (),
    shard_fault_times: int = 1,
    hang_seconds: float = 30.0,
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
    kill_shards:
        ``(phase, shard_seq)`` addresses whose worker calls ``os._exit``
        (the shape of an OOM kill); fires ``shard_fault_times`` times.
    hang_shards:
        Addresses whose worker sleeps ``hang_seconds`` (exercises the
        supervisor's soft timeout); fires ``shard_fault_times`` times.
    poison_shards:
        Addresses that raise on *every* worker attempt while computing
        normally in the parent — the worker-error fault's test vector.
    shard_fault_times:
        Total firings per kill/hang address, coordinated across worker
        processes.
    hang_seconds:
        Sleep length of a hung shard (should exceed the shard timeout
        under test by a wide margin).
    """
    global _active
    if _active is not None:
        raise RuntimeError("fault injection does not nest")
    if corruption_mode not in ("truncate", "garbage"):
        raise ValueError(f"unknown corruption_mode {corruption_mode!r}")
    worker_faults = None
    token_dir = None
    if kill_shards or hang_shards or poison_shards:
        token_dir = tempfile.mkdtemp(prefix="repro-faultinject-")
        worker_faults = WorkerFaultSpec(
            kill_shards=tuple((str(p), int(s)) for p, s in kill_shards),
            hang_shards=tuple((str(p), int(s)) for p, s in hang_shards),
            poison_shards=tuple((str(p), int(s)) for p, s in poison_shards),
            times=int(shard_fault_times),
            hang_seconds=float(hang_seconds),
            token_dir=token_dir,
        )
    plan = FaultPlan(
        clock_skew=clock_skew,
        skew_after=skew_after,
        memory_fail_after=memory_fail_after,
        corrupt_checkpoints=corrupt_checkpoints,
        corruption_mode=corruption_mode,
        worker_faults=worker_faults,
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
        if token_dir is not None:
            shutil.rmtree(token_dir, ignore_errors=True)
