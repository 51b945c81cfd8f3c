"""Persistence for clustering results.

Two formats:

* **JSON** — ``repro.clustering/v2``: labels, core mask (0/1), the
  multi-membership overflow pairs, the cluster count and meta.  The older
  ``repro.clustering/v1`` payloads (sorted member lists per cluster) are
  still read;
* **NPZ** — the same arrays, compressed.

Round-trips preserve cluster-set equality, core masks, and metadata
(numpy values in ``meta`` are converted to plain Python on save).
"""

from __future__ import annotations

import json
import os
from typing import Dict

import numpy as np

from repro.core.result import NOISE, Clustering
from repro.errors import DataError

FORMAT = "repro.clustering/v2"
FORMAT_V1 = "repro.clustering/v1"
_FIELDS = ("labels", "core_mask", "overflow_points", "overflow_clusters")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _arrays(result: Clustering) -> Dict[str, np.ndarray]:
    """The v2 arrays: JSON lists them, NPZ stores them as they are."""
    return {
        "labels": result.labels,
        "core_mask": result.core_mask.astype(np.uint8),
        "overflow_points": np.repeat(result.overflow_points, np.diff(result.overflow_indptr)),
        "overflow_clusters": result.overflow_clusters,
    }


def _from_arrays(fields, meta) -> Clustering:
    """Inverse of :func:`_arrays`, validated by the result's canonicaliser."""
    missing = [name for name in _FIELDS if name not in fields]
    if missing:
        raise DataError(f"clustering payload lacks {', '.join(missing)}")
    labels = np.asarray(fields["labels"], dtype=np.int64)
    n = int(fields.get("n", labels.size))
    if labels.shape != (n,):
        raise DataError(f"labels must have shape ({n},); got {labels.shape}")
    points = np.asarray(fields["overflow_points"], dtype=np.int64)
    cids = np.asarray(fields["overflow_clusters"], dtype=np.int64)
    if points.ndim != 1 or points.shape != cids.shape:
        raise DataError("overflow_points and overflow_clusters must be equal-length vectors")
    clustered = np.flatnonzero(labels != NOISE)
    return Clustering._from_pairs(
        n,
        np.concatenate((clustered, points)),
        np.concatenate((labels[clustered], cids)),
        # Canonical ids are dense, each one a label or an overflow entry.
        int(max(labels.max(initial=NOISE), cids.max(initial=NOISE))) + 1,
        np.asarray(fields["core_mask"], dtype=bool),
        meta,
    )


def to_dict(result: Clustering) -> Dict:
    """Plain-dict representation (the JSON schema, ``repro.clustering/v2``)."""
    fields = {name: arr.tolist() for name, arr in _arrays(result).items()}
    return {
        "format": FORMAT, "n": result.n, "n_clusters": result.n_clusters,
        **fields, "meta": _jsonable(result.meta),
    }


def from_dict(payload: Dict) -> Clustering:
    """Inverse of :func:`to_dict`; also reads ``repro.clustering/v1`` payloads."""
    fmt = payload.get("format")
    if fmt == FORMAT:
        return _from_arrays(payload, payload.get("meta", {}))
    if fmt == FORMAT_V1:
        return Clustering(
            payload["n"],
            payload["clusters"],
            np.asarray(payload["core_mask"], dtype=bool),
            meta=payload.get("meta", {}),
        )
    raise DataError(f"unrecognised payload format: {fmt!r}")


def save_clustering(result: Clustering, path: str) -> None:
    """Save to ``.json`` or ``.npz`` (chosen by extension)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        with open(path, "w") as fh:
            json.dump(to_dict(result), fh)
        return
    if ext == ".npz":
        meta = json.dumps(_jsonable(result.meta)).encode()
        np.savez_compressed(
            path, meta=np.frombuffer(meta, dtype=np.uint8), **_arrays(result)
        )
        return
    raise DataError(f"unsupported extension {ext!r}; use .json or .npz")


def load_clustering(path: str) -> Clustering:
    """Load a result saved by :func:`save_clustering`."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        with open(path) as fh:
            return from_dict(json.load(fh))
    if ext == ".npz":
        with np.load(path) as data:
            fields = {name: data[name] for name in data.files}
        meta = json.loads(bytes(fields.pop("meta")).decode() or "{}")
        return _from_arrays(fields, meta)
    raise DataError(f"unsupported extension {ext!r}; use .json or .npz")
