"""Supervision of the cores fan-out: one rung, owned processes, bounded teardown.

The parent starts the worker processes itself (one ``Pipe`` each), hands
each worker one ``(seq, item)`` task at a time and waits on the pipes and
the process sentinels with :func:`multiprocessing.connection.wait`.  A
*fault* is any of four events:

* a worker that cannot start (``Pipe()`` or ``Process.start()`` raises
  ``OSError``: out of process ids, file descriptors or memory);
* a worker error that is not a budget verdict;
* a dead worker (its sentinel fires: an OOM kill, a segfault, ``os._exit``);
* a task in flight longer than the shard timeout.

On the first fault the parent tears every worker down in bounded time
(``kill()``, then ``join(timeout)`` on its own processes; no lock is
shared with them) and runs every unfinished task itself, with the same
task function the workers run.  A cores task counts one ``(lo, hi)``
range of a plan the parent built before the fork, and its result is kept
under its range, so where a range runs changes nothing in the output:
labels, core masks and counters stay byte-identical to the serial run
(``docs/PARALLEL.md``, "Failure model").

Library errors raised *inside* workers (:class:`~repro.errors.TimeoutExceeded`,
:class:`~repro.errors.MemoryBudgetExceeded`) are cooperative budget
verdicts, not faults: they re-raise in the parent at once.

Every task re-run in the parent is recorded on a :class:`SupervisorStats`,
which the grid pipeline surfaces as ``Clustering.meta["supervisor"]``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import MemoryBudgetExceeded, TimeoutExceeded
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger

_log = get_logger("parallel.supervisor")

#: Hang threshold (seconds) when neither ``shard_timeout`` nor a bounded
#: deadline is configured.  Generous on purpose: it exists to guarantee
#: liveness (a lost task must never block forever), not to police slow
#: tasks.
DEFAULT_SHARD_TIMEOUT = 300.0

#: Seconds the teardown waits for each killed worker to be reaped.
JOIN_TIMEOUT = 5.0

#: Worker start method: ``fork`` where available (workers inherit the grid
#: and the plan copy-on-write), else the platform default.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else None

@dataclass
class SupervisorStats:
    """Ledger of one run's fan-outs."""

    #: One entry per task re-run in the parent: phase, shard seq, and the
    #: reason (``"error"``, ``"timeout"``, ``"worker-death"`` for the
    #: faulted task; ``"teardown"`` for the others left unfinished;
    #: ``"worker-start"`` for every task when a worker could not start).
    retries: List[Dict[str, object]] = field(default_factory=list)
    #: Tasks whose soft timeout fired.
    timeouts: int = 0
    #: Tasks sent to a worker process.
    submitted: int = 0
    #: Largest worker count a fan-out of the run started (0: none).
    pool_workers: int = 0

    def record_retry(self, phase: str, seq: int, reason: str) -> None:
        self.retries.append({"phase": phase, "shard": int(seq), "reason": reason})

    def as_dict(self) -> Dict[str, object]:
        return {"retries": list(self.retries), "timeouts": int(self.timeouts)}


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


@dataclass(eq=False)
class _Worker:
    """A worker process, the parent's end of its pipe and its task in flight."""

    proc: object
    conn: object
    seq: Optional[int] = None
    since: float = 0.0


def _effective_timeout(shard_timeout: Optional[float], deadline: Optional[Deadline]) -> float:
    if shard_timeout is not None:
        return float(shard_timeout)
    if deadline is not None and deadline.budget is not None:
        # A task can never legitimately outlive the remaining budget; the
        # parent's own deadline check fires first either way.
        return max(float(deadline.remaining() or 0.0), 1e-3)
    return DEFAULT_SHARD_TIMEOUT


def run_supervised(
    target: Callable,
    payload: Dict[str, object],
    n_workers: int,
    items: Sequence,
    consume: Callable[[object], None],
    *,
    phase: str,
    local_runner: Callable[[object], object],
    shard_timeout: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    memory: Optional[MemoryBudget] = None,
    stats: Optional[SupervisorStats] = None,
) -> None:
    """Run every item on ``n_workers`` owned processes; finish in the parent on a fault.

    Each process runs ``target(conn, payload, inherited)``: it receives
    ``(seq, item)`` on ``conn`` and answers ``(seq, ok, value)``, and
    closes the ``inherited`` parent pipe ends first (see
    :func:`repro.parallel.worker.serve`).  ``consume`` merges one result
    and must be idempotent (a result is consumed at most once here, but
    the merges key their results anyway).  ``local_runner(item)`` runs one
    item in the parent; after a fault it runs every unfinished item.  A
    worker that cannot start is a fault before any task is sent: the
    workers already started are torn down and the parent runs every item.
    Budget errors from workers re-raise at once, after the teardown.
    """
    if not items:
        return
    if stats is None:
        stats = current_stats() or SupervisorStats()
    timeout = _effective_timeout(shard_timeout, deadline)
    unfinished = set(range(len(items)))
    ctx = mp.get_context(_START_METHOD)
    workers: List[_Worker] = []
    try:
        try:
            _start(ctx, target, payload, n_workers, workers)
        except OSError as exc:
            _log.warning("supervisor[%s]: cannot start a worker: %s", phase, exc)
            faulted = dict.fromkeys(unfinished, "worker-start")
        else:
            stats.pool_workers = max(stats.pool_workers, len(workers))
            faulted = _drive(
                workers, items, unfinished, consume, phase, timeout, deadline, memory, stats
            )
    finally:
        _teardown(workers)
    if not unfinished:
        return
    for seq in sorted(unfinished):
        stats.record_retry(phase, seq, faulted.get(seq, "teardown"))
    _log.warning(
        "supervisor[%s]: fault (%s); running %d unfinished task(s) in the parent",
        phase, ", ".join(f"{seq}: {why}" for seq, why in faulted.items()) or "idle worker",
        len(unfinished),
    )
    for seq in sorted(unfinished):
        consume(local_runner(items[seq]))


def _start(ctx, target, payload, n_workers: int, workers: List[_Worker]) -> None:
    """Start ``n_workers`` processes, appending each to ``workers`` once started.

    An ``OSError`` propagates with the pipe ends of the failed start
    closed; the workers already in ``workers`` are the caller's to reap.
    """
    ends = []
    for _ in range(n_workers):
        conn, child = ctx.Pipe()
        ends.append(conn)
        proc = ctx.Process(target=target, args=(child, payload, tuple(ends)), daemon=True)
        try:
            proc.start()
        except OSError:
            conn.close()
            raise
        finally:
            child.close()
        workers.append(_Worker(proc, conn))


def _drive(workers, items, unfinished, consume, phase, timeout, deadline, memory, stats):
    """Feed the workers until every item is done or a fault happens.

    Returns ``{seq: reason}`` for the task(s) a fault hit (empty when an
    idle worker died, and when no fault happened).
    """
    # Imported on first fan-out: it pulls in ``subprocess`` and
    # ``multiprocessing.util``, which serial runs never need.
    from multiprocessing.connection import wait

    pending = list(range(len(items)))[::-1]
    owner = {}
    for w in workers:
        owner[w.conn] = owner[w.proc.sentinel] = w

    def send(w: _Worker) -> None:
        w.seq = pending.pop()
        w.since = time.monotonic()
        stats.submitted += 1
        try:
            w.conn.send((w.seq, items[w.seq]))
        except OSError:
            pass  # the worker is gone; its sentinel reports it

    for w in workers:
        if pending:
            send(w)
    while unfinished:
        busy = [w.since for w in workers if w.seq is not None]
        left = min(busy) + timeout - time.monotonic() if busy else timeout
        if deadline is not None and deadline.budget is not None:
            left = min(left, deadline.remaining())
        ready = wait(list(owner), max(left, 0.0))
        if deadline is not None:
            deadline.check()
        for w in dict.fromkeys(owner[obj] for obj in ready):
            try:
                if not w.conn.poll():
                    raise EOFError  # sentinel fired with nothing left to read
                seq, ok, value = w.conn.recv()
            except (EOFError, OSError):
                return {} if w.seq is None else {w.seq: "worker-death"}
            if not ok:
                if isinstance(value, (TimeoutExceeded, MemoryBudgetExceeded)):
                    raise value
                _log.warning("supervisor[%s]: task %d failed: %r", phase, seq, value)
                return {seq: "error"}
            w.seq = None
            unfinished.discard(seq)
            consume(value)
            if memory is not None:
                memory.check(phase)
            if pending:
                send(w)
        now = time.monotonic()
        hung = [w.seq for w in workers if w.seq is not None and now - w.since > timeout]
        if hung:
            stats.timeouts += len(hung)
            return {seq: "timeout" for seq in hung}
    return {}


def _teardown(workers: Sequence[_Worker]) -> None:
    """Kill and reap the workers, each join bounded by :data:`JOIN_TIMEOUT`."""
    for w in workers:
        w.proc.kill()
    for w in workers:
        w.proc.join(JOIN_TIMEOUT)
        w.conn.close()
