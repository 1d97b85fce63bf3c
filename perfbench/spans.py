"""In-memory spans recorded around calls into vulnchain's public functions.

A span is (id, parent, name, start, end). Spans stay in memory while the
benchmark runs and are written out once at the end. A span's self time is
its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


def direct(_name, fn, *args):
    """The untraced call: no span, no bookkeeping."""
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None, name, perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> float:
        span = self.spans[sid]
        span[4] = perf_counter()
        self._stack.pop()
        return span[4] - span[3]

    def call(self, name, fn, *args):
        sid = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def self_times(self, first: int) -> dict[str, float]:
        """Self time per span name over ``spans[first:]``, which must be one
        tree: an analysis root span and everything recorded under it."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans[first + 1:]:
            covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans[first:]:
            totals[name] += (end - start) - covered[sid]
        return dict(totals)

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def per_layer(samples: list[dict[str, float]], names) -> dict[str, float]:
    """Median over analyses of each named value; 0 where never recorded."""
    return {name: statistics.median(s.get(name, 0.0) for s in samples) if samples else 0.0
            for name in names}
