"""Spans recorded by traced runs, and the numbers derived from them.

A span covers one call the benchmark makes into a superwalk module: its
name, start, end, parent span, job id and attributes.  Spans stay in memory
and are written out when the run ends.  Untraced runs use ``NullTracer``,
whose ``call`` is a plain call, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Tracer of untraced runs: calls go straight through."""

    enabled = False
    job_id = None

    def call(self, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "group", "attrs")

    def __init__(self, name, start, parent, job, group, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.group = group
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "job": self.job, "group": self.group,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans; ``group`` tells workload passes from the probe."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.group = "workload"
        self.job_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, perf_counter(), parent, self.job_id, self.group, attrs or {})
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        with self.span(name, attrs):
            return fn(*args, **kwargs)

    def write(self, path):
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.to_json(index), default=str) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def growth_exponent(points) -> float | None:
    """Least-squares slope of log(time) against log(size).

    ``points`` are (size, seconds) pairs; at least three distinct sizes are
    needed, otherwise the fit is unavailable and None is returned.
    """
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 3:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
