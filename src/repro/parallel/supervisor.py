"""Fault-tolerant supervision of the sharded worker pool.

``multiprocessing.Pool.imap_unordered`` gives the grid pipeline cheap
fan-out but no *supervision*: an OOM-killed or segfaulted worker loses its
task forever (the pool quietly replaces the process, the result never
arrives), a hung worker blocks the run indefinitely, and a shard whose
data deterministically crashes workers sinks everything computed so far.
This module layers a supervisor over the same pool that makes worker
failure a recoverable event instead of a fatal one:

* every in-flight shard is **tracked** (submit time, attempt count) and
  results arrive through ``apply_async`` callbacks, so completion is as
  prompt as ``imap_unordered``;
* **dead workers** are detected from pool process exit codes and pid
  churn (the pool's self-repair replaces crashed processes), **hung
  shards** from a per-task soft timeout derived from the run's deadline;
  either event terminates and **respawns the pool**, requeueing only the
  shards whose results have not arrived — completed work is kept;
* failed shards are **retried with exponential backoff plus
  deterministic jitter** up to a configurable budget;
* shards that exhaust their retries are **quarantined**: re-executed
  serially in the parent process with the very same task function, so one
  poison shard cannot sink the run and the merged output stays
  byte-identical to the serial pipeline (shard results are
  order-independent and idempotent by construction — see
  ``docs/PARALLEL.md``);
* when the pool itself keeps breaking past its respawn budget, all
  remaining shards are **serially requeued** in the parent (the last rung
  before giving up); only with quarantine explicitly disabled does the
  supervisor raise :class:`~repro.errors.WorkerPoolError`, which
  :func:`repro.runtime.run_resilient` treats as degradable.

Everything the supervisor does — every retry, timeout, respawn, and
quarantine — is recorded on a :class:`SupervisorStats`, which the grid
pipeline surfaces as ``Clustering.meta["supervisor"]`` and the resilient
runtime folds into ``meta["resilience"]``.

Library errors raised *inside* workers (:class:`~repro.errors.TimeoutExceeded`,
:class:`~repro.errors.MemoryBudgetExceeded`) are **not** retried: they are
cooperative budget verdicts, not infrastructure failures, and re-raise to
the parent exactly as the unsupervised pool re-raised them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MemoryBudgetExceeded, TimeoutExceeded, WorkerPoolError
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger

_log = get_logger("parallel.supervisor")

#: Hang threshold (seconds) when neither ``shard_timeout`` nor a bounded
#: deadline is configured.  Generous on purpose: it exists to guarantee
#: liveness (a lost task must never block forever), not to police slow
#: shards.
DEFAULT_SHARD_TIMEOUT = 300.0

#: How long the supervisor waits for a completion signal before sweeping
#: for hung shards and dead workers.  Completions themselves wake the
#: loop immediately through an event, so this bounds only failure
#: *detection* latency, not fault-free throughput.
POLL_INTERVAL = 0.05

#: Exponential-backoff parameters for shard retries.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

_GOLDEN = 0.6180339887498949


def backoff_delay(attempt: int, seq: int) -> float:
    """Backoff before retry number ``attempt`` (1-based) of shard ``seq``.

    Exponential in the attempt, with a deterministic per-shard jitter in
    ``[0.5x, 1.5x)`` (golden-ratio hashing of the shard id) so retried
    shards do not resubmit in lockstep yet runs stay reproducible.
    """
    base = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** max(0, attempt - 1)))
    jitter = 0.5 + ((seq * _GOLDEN) % 1.0)
    return base * jitter


def retry_transient(
    fn: Callable[[], object],
    *,
    attempts: int = 3,
    seq: int = 0,
    deadline: Optional[Deadline] = None,
    retry_on: Tuple[type, ...] = (WorkerPoolError, OSError),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn()`` with the supervisor's backoff on transient failures.

    The supervisor's retry ladder, reusable outside :func:`run_supervised`
    for callers (the service dispatcher, ad-hoc scripts) that invoke a
    whole engine run rather than a single shard.  Only exceptions in
    ``retry_on`` are retried — by default infrastructure failures
    (:class:`~repro.errors.WorkerPoolError`, ``OSError``); cooperative
    budget verdicts (:class:`~repro.errors.TimeoutExceeded`,
    :class:`~repro.errors.MemoryBudgetExceeded`) and parameter errors
    propagate immediately, exactly as :func:`run_supervised` treats them.
    Between attempts the delay follows :func:`backoff_delay` (``seq``
    picks the jitter lane); a bounded ``deadline`` that cannot cover the
    next delay re-raises instead of sleeping past the budget.
    ``on_retry(attempt, exc)`` is invoked before each backoff so callers
    can keep their own ledger.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1; got {attempts}")
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == attempts:
                raise
            delay = backoff_delay(attempt, seq)
            if deadline is not None:
                deadline.check()
                remaining = deadline.remaining()
                if remaining is not None and remaining <= delay:
                    raise
            if on_retry is not None:
                on_retry(attempt, exc)
            _log.warning(
                "retry_transient: attempt %d/%d failed (%s: %s); retrying in %.0fms",
                attempt, attempts, type(exc).__name__, exc, delay * 1e3,
            )
            sleep(delay)
    raise AssertionError("unreachable") from last  # pragma: no cover


@dataclass
class SupervisorStats:
    """Ledger of every recovery action taken across one run's phases."""

    #: One entry per shard resubmission: phase, shard seq, attempt number,
    #: and the reason (``"error"``, ``"timeout"``, ``"worker-death"``).
    retries: List[Dict[str, object]] = field(default_factory=list)
    #: One entry per quarantined shard (retries exhausted, ran in parent).
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    #: Pool respawns after breakage (worker death or hung-shard recovery).
    respawns: int = 0
    #: Shards whose soft timeout fired.
    timeouts: int = 0
    #: Shards executed serially in the parent after the pool was abandoned.
    serial_requeued: int = 0
    #: Shard submissions to a worker pool, retries included.
    submitted: int = 0
    #: Largest worker pool a fan-out of the run started (0: none).
    pool_workers: int = 0

    def record_retry(self, phase: str, seq: int, attempt: int, reason: str) -> None:
        self.retries.append(
            {"phase": phase, "shard": int(seq), "attempt": int(attempt), "reason": reason}
        )

    def record_quarantine(self, phase: str, seq: int, attempts: int, reason: str) -> None:
        self.quarantined.append(
            {"phase": phase, "shard": int(seq), "attempts": int(attempts), "reason": reason}
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "retries": list(self.retries),
            "quarantined": list(self.quarantined),
            "respawns": int(self.respawns),
            "timeouts": int(self.timeouts),
            "serial_requeued": int(self.serial_requeued),
        }


#: Ambient stats collector: the pipeline opens one per run so the phase
#: executors (reached through callbacks whose signatures predate the
#: supervisor) all charge the same ledger without signature churn.
_stats_var: ContextVar[Optional[SupervisorStats]] = ContextVar(
    "repro_supervisor_stats", default=None
)


def current_stats() -> Optional[SupervisorStats]:
    """The ambient per-run stats ledger, if a pipeline opened one."""
    return _stats_var.get()


@contextmanager
def collect_stats() -> Iterator[SupervisorStats]:
    """Install a fresh ambient :class:`SupervisorStats` for one run."""
    stats = SupervisorStats()
    token = _stats_var.set(stats)
    try:
        yield stats
    finally:
        _stats_var.reset(token)


@dataclass
class _Shard:
    """Parent-side state of one task for the lifetime of a phase."""

    seq: int
    item: object
    attempts: int = 0
    eligible_at: float = 0.0
    done: bool = False


class _Policy:
    """The supervisor knobs, duck-read off a ``ParallelConfig``."""

    __slots__ = ("max_shard_retries", "shard_timeout", "quarantine", "max_pool_respawns")

    def __init__(self, cfg) -> None:
        self.max_shard_retries = int(getattr(cfg, "max_shard_retries", 2))
        self.shard_timeout = getattr(cfg, "shard_timeout", None)
        self.quarantine = bool(getattr(cfg, "quarantine", True))
        self.max_pool_respawns = int(getattr(cfg, "max_pool_respawns", 2))


def _effective_timeout(policy: _Policy, deadline: Optional[Deadline]) -> float:
    if policy.shard_timeout is not None:
        return float(policy.shard_timeout)
    if deadline is not None and deadline.budget is not None:
        # A shard can never legitimately outlive the remaining budget; the
        # parent's own deadline check fires first either way.
        return max(float(deadline.remaining() or 0.0), 1e-3)
    return DEFAULT_SHARD_TIMEOUT


def run_supervised(
    pool_factory: Callable[[], object],
    task: Callable,
    kind: str,
    phase: str,
    items: Sequence,
    consume: Callable[[object], None],
    *,
    cfg,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    local_runner: Optional[Callable[[str, object], object]] = None,
    stats: Optional[SupervisorStats] = None,
) -> None:
    """Run ``task(kind, seq, item)`` for every item, surviving worker faults.

    ``pool_factory`` builds (and rebuilds, after breakage) the initialized
    pool; ``consume`` merges each shard result into the parent-side
    accumulators — it must be order-independent and idempotent, which all
    four phase merges are (index writes, dict updates, union-find unions).
    ``local_runner(kind, item)`` executes one shard in the parent process
    for quarantine / serial requeue.

    Raises :class:`~repro.errors.WorkerPoolError` only when the recovery
    ladder is exhausted *and* quarantine is disabled; budget errors from
    workers (:class:`TimeoutExceeded`, :class:`MemoryBudgetExceeded`)
    re-raise immediately, as the unsupervised pool did.
    """
    if not items:
        return
    policy = _Policy(cfg)
    if stats is None:
        stats = current_stats() or SupervisorStats()
    timeout = _effective_timeout(policy, deadline)

    shards = [_Shard(seq=i, item=item) for i, item in enumerate(items)]
    pending: Deque[_Shard] = deque(shards)
    inflight: Dict[int, float] = {}
    n_done = 0

    wake = threading.Event()
    completions: Deque[Tuple[int, bool, object]] = deque()

    def _on_result(seq: int, ok: bool, value: object) -> None:
        # Runs on the pool's result-handler thread: enqueue and signal only.
        completions.append((seq, ok, value))
        wake.set()

    pool = None
    pool_pids: frozenset = frozenset()
    respawns = 0

    def _spawn_pool():
        nonlocal pool, pool_pids
        pool = pool_factory()
        try:
            pool_pids = frozenset(p.pid for p in pool._pool)
        except Exception:  # pragma: no cover - interpreter-internal layout
            pool_pids = frozenset()
        stats.pool_workers = max(stats.pool_workers, len(pool_pids))

    def _submit(shard: _Shard) -> None:
        seq = shard.seq
        pool.apply_async(
            task,
            (kind, seq, shard.item),
            callback=lambda value, seq=seq: _on_result(seq, True, value),
            error_callback=lambda exc, seq=seq: _on_result(seq, False, exc),
        )
        inflight[seq] = time.monotonic()
        stats.submitted += 1

    def _run_in_parent(shard: _Shard, *, why: str) -> None:
        nonlocal n_done
        if local_runner is None:  # pragma: no cover - all phases wire one
            raise WorkerPoolError(
                f"shard {shard.seq} of phase {phase!r} failed and no parent-side "
                "runner is available",
                stats.as_dict(),
            )
        _log.warning(
            "supervisor[%s]: running shard %d in the parent (%s)", phase, shard.seq, why
        )
        consume(local_runner(kind, shard.item))
        shard.done = True
        n_done += 1

    def _retry_or_quarantine(shard: _Shard, reason: str, detail: str) -> None:
        shard.attempts += 1
        if shard.attempts <= policy.max_shard_retries:
            delay = backoff_delay(shard.attempts, shard.seq)
            shard.eligible_at = time.monotonic() + delay
            stats.record_retry(phase, shard.seq, shard.attempts, reason)
            _log.warning(
                "supervisor[%s]: shard %d failed (%s: %s); retry %d/%d in %.0fms",
                phase, shard.seq, reason, detail, shard.attempts,
                policy.max_shard_retries, delay * 1e3,
            )
            pending.append(shard)
            return
        if policy.quarantine:
            stats.record_quarantine(phase, shard.seq, shard.attempts, reason)
            _run_in_parent(shard, why=f"quarantined after {shard.attempts} failed attempt(s)")
            return
        raise WorkerPoolError(
            f"shard {shard.seq} of phase {phase!r} failed {shard.attempts} time(s) "
            f"({reason}: {detail}) and quarantine is disabled",
            stats.as_dict(),
        )

    def _break_pool(reason: str, detail: str, hung: Sequence[int] = ()) -> None:
        """Terminate the pool, requeue lost shards, respawn within budget."""
        nonlocal pool, respawns
        _log.warning(
            "supervisor[%s]: pool breakage (%s: %s); %d shard(s) in flight",
            phase, reason, detail, len(inflight),
        )
        _terminate(pool)
        pool = None
        lost = [s for s in shards if s.seq in inflight and not s.done]
        inflight.clear()
        for shard in lost:
            # A crash cannot be attributed to one shard, so every lost
            # shard is charged an attempt: the poison shard is in flight
            # at every breakage and exhausts its budget; innocents
            # complete long before theirs runs out.
            _retry_or_quarantine(
                shard, "timeout" if shard.seq in hung else reason, "pool respawned"
            )
        respawns += 1
        if respawns <= policy.max_pool_respawns:
            stats.respawns += 1
            _log.warning(
                "supervisor[%s]: respawning pool (%d/%d)",
                phase, respawns, policy.max_pool_respawns + 1,
            )
            _spawn_pool()
        elif not policy.quarantine:
            raise WorkerPoolError(
                f"worker pool for phase {phase!r} broke {respawns} time(s), "
                f"exceeding its respawn budget of {policy.max_pool_respawns}, "
                "and quarantine is disabled",
                stats.as_dict(),
            )
        else:
            _log.warning(
                "supervisor[%s]: respawn budget exhausted; running the remaining "
                "%d shard(s) serially in the parent", phase, len(pending),
            )

    try:
        _spawn_pool()
        while n_done < len(shards):
            if deadline is not None:
                deadline.check()
            now = time.monotonic()

            if pool is None and pending:
                # Respawn budget spent: the serial-requeue rung.  Shards run
                # with the same task functions in the parent, so the output
                # is untouched by where they execute.
                shard = pending.popleft()
                if not shard.done:
                    stats.serial_requeued += 1
                    _run_in_parent(shard, why="serial requeue, pool abandoned")
                continue

            if pool is not None:
                waiting: List[_Shard] = []
                while pending:
                    shard = pending.popleft()
                    if shard.done:
                        continue
                    if shard.eligible_at > now:
                        waiting.append(shard)
                        continue
                    _submit(shard)
                pending.extend(waiting)

            wake.wait(POLL_INTERVAL)
            wake.clear()

            while completions:
                seq, ok, value = completions.popleft()
                shard = shards[seq]
                inflight.pop(seq, None)
                if shard.done:
                    continue  # stale duplicate from a pool torn down mid-task
                if ok:
                    shard.done = True
                    n_done += 1
                    consume(value)
                    if memory is not None:
                        memory.check(phase)
                elif isinstance(value, (TimeoutExceeded, MemoryBudgetExceeded)):
                    raise value
                else:
                    _retry_or_quarantine(shard, "error", f"{type(value).__name__}: {value}")

            if pool is not None and inflight:
                now = time.monotonic()
                hung = [seq for seq, t0 in inflight.items() if now - t0 > timeout]
                if hung:
                    stats.timeouts += len(hung)
                    _break_pool(
                        "timeout",
                        f"{len(hung)} shard(s) exceeded the {timeout:g}s soft timeout",
                        hung=hung,
                    )
                    continue

            if pool is not None and inflight and _pool_damaged(pool, pool_pids):
                _break_pool("worker-death", "a pool process exited or was replaced")
    finally:
        _terminate(pool)


def _pool_damaged(pool, known_pids: frozenset) -> bool:
    """True when a pool process died (exit code) or was replaced (pid churn)."""
    try:
        procs = list(pool._pool)
        if any(p.exitcode is not None for p in procs):
            return True
        return frozenset(p.pid for p in procs) != known_pids
    except Exception:  # pragma: no cover - racing the pool's repair thread
        return True


def _terminate(pool) -> None:
    if pool is None:
        return
    try:
        pool.terminate()
        pool.join()
    except Exception:  # pragma: no cover - already-dead pool
        pass
