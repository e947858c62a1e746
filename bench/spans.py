"""In-memory span recorder for the traced run.

A span is [name, start, end, parent, op].  Spans stay in memory while the
run measures, are written out as JSON lines when it ends, and are reduced
to per-op self times: a span's duration minus the durations of its
direct children.  Counts of work done are recorded per op beside them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))

    def open(self, name: str, parent: int | None, op: int | None) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, op])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None, op: int | None) -> int:
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def count(self, op: int | None, name: str, k: int) -> None:
        self.counts[op][name] += k

    def per_op(self) -> dict[int | None, dict[str, dict[str, float]]]:
        """op -> span name -> {"dur": summed duration, "self": summed self time, "n": count}."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: {"dur": 0.0, "self": 0.0, "n": 0}))
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            agg = out[op][name]
            agg["dur"] += end - start
            agg["self"] += end - start - child[sid]
            agg["n"] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
