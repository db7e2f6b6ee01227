"""In-memory span recorder for the traced benchmark run.

A span is ``{id, name, parent, start, end}``.
Spans nest through a stack, so a span opened inside another becomes its
child. Spans stay in memory and are written once, at the end of the run.
A layer's self time is its span's duration minus the time its child spans
cover; children never overlap because the recorder is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def subtree(self, root_id: int) -> list[dict]:
        """The root span and every span below it."""
        inside = {root_id}
        out = [self.spans[root_id]]
        for rec in self.spans[root_id + 1 :]:
            if rec["parent"] in inside:
                inside.add(rec["id"])
                out.append(rec)
        return out

    def self_times(self, root_id: int) -> dict[str, float]:
        """Self time per span name over the subtree of ``root_id``; the
        root's own self time is the time no child span covers."""
        recs = self.subtree(root_id)
        child_time: dict[int, float] = defaultdict(float)
        for rec in recs[1:]:
            child_time[rec["parent"]] += self.duration(rec)
        out: dict[str, float] = defaultdict(float)
        for rec in recs:
            out[rec["name"]] += self.duration(rec) - child_time[rec["id"]]
        return dict(out)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration(r) for r in self.spans if r["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
