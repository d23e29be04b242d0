"""In-memory spans recorded around the benchmark's calls into the engine.

Every call the benchmark times goes through ``Recorder.span``.  The
recorder always keeps the call's duration (the end-to-end metrics are built
from those); with tracing on it also keeps a span record — name, start, end,
parent — and writes them all out as JSON when the run ends.  The cost of the
span bookkeeping itself is measured and reported as the tracing overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = None
        if self.tracing:
            b0 = time.perf_counter()
            rec = {"id": len(self.spans), "name": name,
                   "parent": self._stack[-1] if self._stack else None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            self.overhead_s += time.perf_counter() - b0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.durations[name].append(t1 - t0)
            if rec is not None:
                rec["start"], rec["end"] = t0, t1
                self._stack.pop()
                self.overhead_s += time.perf_counter() - t1

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of it
        covered by child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "overhead_s": self.overhead_s}, f)
