"""Phase-level checkpoint/resume for the grid algorithms.

The paper's exact and rho-approximate algorithms share a four-phase
pipeline (Section 3.2 / 4.4):

1. ``grid`` — the grid ``T`` is imposed (deterministic, cheap to rebuild);
2. ``cores`` — the labeling process fixed the core mask;
3. ``components`` — the core-cell graph is connected (the expensive part);
4. ``borders`` — border points are assigned.

A :class:`CheckpointStore` persists the outputs of each completed phase to
one ``.npz`` file, written atomically (temp file + ``os.replace``) so a
kill mid-write never destroys the previous checkpoint.  A resumed run
validates a fingerprint of the input points and the parameters before
trusting the file; corrupt or mismatched checkpoints are *recoverable* —
the loader raises :class:`~repro.errors.CheckpointError`, and the pipeline
logs a WARNING and recomputes from scratch.

The parameter fingerprint includes the requested ``workers`` count: a
checkpoint written by a parallel run is only resumed by an invocation
requesting the same parallelism, so a resume never silently mixes shard
layouts with serial state (phases are whole-output snapshots either way,
but the fingerprint keeps provenance honest and reproducible).  The
supervision knob (``shard_timeout``) deliberately does **not** join the
fingerprint: it only changes when a hung range is finished in the parent,
never the phase outputs — a supervised run's result is byte-identical to
the serial one — so checkpoints written under different timeouts are
interchangeable.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError
from repro.utils.log import get_logger

_log = get_logger("runtime.checkpoint")

#: Pipeline phases in completion order.
PHASES: Tuple[str, ...] = ("grid", "cores", "components", "borders")

_FORMAT = "repro.checkpoint/v1"

#: Optional post-save corrupter installed by the fault-injection harness.
_corrupt_hook: Optional[Callable[[str], None]] = None


def set_fault_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or with ``None`` remove) the checkpoint corruption hook."""
    global _corrupt_hook
    _corrupt_hook = hook


def phase_index(phase: str) -> int:
    """Position of ``phase`` in the pipeline (raises on unknown names)."""
    try:
        return PHASES.index(phase)
    except ValueError:
        raise CheckpointError(f"unknown checkpoint phase {phase!r}; expected one of {PHASES}")


def fingerprint_points(points: np.ndarray) -> str:
    """Content hash binding a checkpoint to one exact input array."""
    arr = np.ascontiguousarray(points)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _flatten_borders(borders: Mapping[int, Tuple[int, ...]]):
    pts, counts, cids = [], [], []
    for idx in sorted(borders):
        member_cids = borders[idx]
        pts.append(int(idx))
        counts.append(len(member_cids))
        cids.extend(int(c) for c in member_cids)
    return (
        np.asarray(pts, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        np.asarray(cids, dtype=np.int64),
    )


def _unflatten_borders(pts, counts, cids) -> Dict[int, Tuple[int, ...]]:
    out: Dict[int, Tuple[int, ...]] = {}
    pos = 0
    for idx, count in zip(pts, counts):
        out[int(idx)] = tuple(int(c) for c in cids[pos:pos + count])
        pos += count
    if pos != len(cids):
        raise CheckpointError("border membership arrays are inconsistent")
    return out


class CheckpointStore:
    """One checkpoint file holding the latest completed phase of a run."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def clear(self) -> None:
        """Delete the checkpoint file (idempotent)."""
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ save

    def save(
        self,
        phase: str,
        fingerprint: str,
        params: Mapping[str, object],
        *,
        core_mask: Optional[np.ndarray] = None,
        core_labels: Optional[np.ndarray] = None,
        n_components: Optional[int] = None,
        borders: Optional[Mapping[int, Tuple[int, ...]]] = None,
    ) -> None:
        """Atomically persist the state as of the end of ``phase``."""
        idx = phase_index(phase)
        header = {
            "format": _FORMAT,
            "phase": phase,
            "fingerprint": fingerprint,
            "params": dict(params),
        }
        arrays: Dict[str, np.ndarray] = {
            "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        }
        if idx >= phase_index("cores"):
            if core_mask is None:
                raise CheckpointError(f"phase {phase!r} requires core_mask")
            arrays["core_mask"] = np.asarray(core_mask, dtype=bool)
        if idx >= phase_index("components"):
            if core_labels is None or n_components is None:
                raise CheckpointError(f"phase {phase!r} requires core_labels/n_components")
            arrays["core_labels"] = np.asarray(core_labels, dtype=np.int64)
            arrays["n_components"] = np.asarray([int(n_components)], dtype=np.int64)
        if idx >= phase_index("borders"):
            if borders is None:
                raise CheckpointError(f"phase {phase!r} requires borders")
            b_pts, b_counts, b_cids = _flatten_borders(borders)
            arrays["border_points"] = b_pts
            arrays["border_counts"] = b_counts
            arrays["border_cids"] = b_cids

        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - only on write failure
                os.remove(tmp)
        _log.debug("checkpoint saved at phase %r -> %s", phase, self.path)
        if _corrupt_hook is not None:
            _corrupt_hook(self.path)

    # ------------------------------------------------------------------ load

    def load(self) -> Optional[Dict[str, object]]:
        """Read the checkpoint; ``None`` if absent, raises on corruption."""
        if not self.exists():
            return None
        try:
            with np.load(self.path) as data:
                header = json.loads(bytes(data["header"]).decode())
                if header.get("format") != _FORMAT:
                    raise CheckpointError(
                        f"unrecognised checkpoint format: {header.get('format')!r}"
                    )
                phase = header["phase"]
                idx = phase_index(phase)
                state: Dict[str, object] = {
                    "phase": phase,
                    "fingerprint": header["fingerprint"],
                    "params": header["params"],
                }
                if idx >= phase_index("cores"):
                    state["core_mask"] = data["core_mask"].astype(bool)
                if idx >= phase_index("components"):
                    state["core_labels"] = data["core_labels"].astype(np.int64)
                    state["n_components"] = int(data["n_components"][0])
                if idx >= phase_index("borders"):
                    state["borders"] = _unflatten_borders(
                        data["border_points"], data["border_counts"], data["border_cids"]
                    )
                return state
        except CheckpointError:
            raise
        except Exception as exc:  # zip/json/key errors -> one recoverable type
            raise CheckpointError(f"corrupt checkpoint {self.path!r}: {exc}") from exc

    def load_matching(
        self, fingerprint: str, params: Mapping[str, object]
    ) -> Optional[Dict[str, object]]:
        """Load iff the checkpoint belongs to this exact run, else ``None``.

        Corruption and mismatches degrade to a fresh start with a WARNING —
        a stale or damaged checkpoint must never fail an otherwise healthy
        run.
        """
        try:
            state = self.load()
        except CheckpointError as exc:
            _log.warning("ignoring unusable checkpoint: %s", exc)
            return None
        if state is None:
            return None
        if state["fingerprint"] != fingerprint:
            _log.warning(
                "checkpoint %s was built from different input data; recomputing",
                self.path,
            )
            return None
        if state["params"] != dict(params):
            _log.warning(
                "checkpoint %s was built with different parameters %r; recomputing",
                self.path,
                state["params"],
            )
            return None
        _log.info("resuming from checkpoint %s at phase %r", self.path, state["phase"])
        return state
