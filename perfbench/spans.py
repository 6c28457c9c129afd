"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``item`` the index of the workload item
being run (-1 outside items).  Spans and counters stay in memory and are
written out once, when the run ends.  A disabled tracer hands out one shared
no-op context, so untraced runs pay a method call per library call and nothing
else.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.item = -1
        self._open = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.item)

    def count(self, name: str, k=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k

    def times(self) -> dict:
        """name -> (total seconds, self seconds, span count).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            tot, own, n = out.get(name, (0.0, 0.0, 0))
            out[name] = (tot + end - start, own + end - start - child[idx], n + 1)
        return out

    def dump(self, path, header: dict):
        with open(path, "w") as fh:
            json.dump(
                {
                    "header": header,
                    "fields": ["name", "start", "end", "parent", "item"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )
