"""In-memory spans recorded by the benchmark around calls into each layer.

A span holds a name, start, end, the index of the span that caused it and
a run id (one assembled instance). Spans stay in memory and are written out
once, at the end of the traced run. Counters are kept per (name, run id)
next to the spans, at the same boundaries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span."""

        def traced(x):
            with self.span(name):
                return fn(x)

        return traced

    def count(self, name: str, value: float) -> None:
        self.counters[(name, self.run_id)] += value

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counters": [[name, run_id, value] for (name, run_id), value in self.counters.items()],
        }


def spans_from_json(payload: dict) -> list[Span]:
    return [Span(**s) for s in payload["spans"]]


def counters_from_json(payload: dict) -> dict[tuple[str, str], float]:
    return {(name, run_id): value for name, run_id, value in payload["counters"]}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]
