"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end (perf_counter seconds), the span that was
open when it began, and the operation it belongs to.  Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    def begin(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def call(self, name, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def durations(self, name):
        """Seconds spent in every closed span called `name`, in order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def child_shares(self, parent_name):
        """Share of the time in `parent_name` spans spent in each child span name."""
        parents = {s["id"]: s["end"] - s["start"] for s in self.spans if s["name"] == parent_name}
        total = sum(parents.values())
        shares = {}
        for s in self.spans:
            if s["parent"] in parents:
                shares[s["name"]] = shares.get(s["name"], 0.0) + s["end"] - s["start"]
        return {name: t / total for name, t in sorted(shares.items())} if total else {}

    def write(self, path, summary):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": self.spans}, fh)
