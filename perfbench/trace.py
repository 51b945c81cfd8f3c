"""In-memory spans for the benchmark's traced run.

Spans are opened by the benchmark's own code around each call into a
library layer; nothing inside the library is instrumented.  A span is
``{id, name, start, end, parent, op}`` (seconds on ``perf_counter``);
spans of one operation share ``op``.  The layer of a span is its name up
to the first dot (``grid.build`` belongs to ``grid``).  A span's self time
is its duration minus the time its children cover.  Everything stays in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        """Time the block as span ``name`` (child of the thread's open span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None else (None if parent is None else parent["op"]),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent: Dict[str, object]):
        """Record a span measured elsewhere (e.g. reported by the server)."""
        record = {
            "id": next(self._ids), "name": name, "start": start, "end": end,
            "parent": parent["id"], "op": parent["op"],
        }
        self.spans.append(record)
        return record

    def self_times(self) -> Dict[int, float]:
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in self.spans}

    def self_by_name(self, ops) -> Dict[str, float]:
        """Mean self time per operation (s) of each span name over ``ops``.

        Root spans (the operation itself) are reported as ``op``: their
        self time is what no layer span covers.
        """
        ops = set(ops)
        own = self.self_times()
        totals: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["op"] in ops:
                totals["op" if s["parent"] is None else s["name"]] += own[s["id"]]
        return {k: v / max(1, len(ops)) for k, v in totals.items()}

    def named(self, name: str, ops) -> List[float]:
        """Durations (s) of every span called ``name`` within ``ops``."""
        ops = set(ops)
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["op"] in ops]

    def dump(self, path: str) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = sorted(self.spans, key=lambda s: s["id"])
        with open(path, "w") as fh:
            json.dump(
                [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in rows], fh
            )
