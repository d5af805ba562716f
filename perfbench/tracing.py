"""In-memory spans around the benchmark's calls into skeincalc.

A span is (name, p, start, end, parent, op): ``p`` tags per-prime stages,
``parent`` is the index of the enclosing span and ``op`` the operation id
shared by every span of one operation.  Spans stay in memory and are written
out (as JSON from child processes) when a run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, p: int | None = None):
        """Run fn(*args) inside a span."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, p, start, end, parent, self.op)


class NullTracer:
    """Tracing off: the same call sites, no records."""

    op = None

    @staticmethod
    def call(name, fn, *args, p=None):
        return fn(*args)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def totals(spans, prefix: str = "op.") -> tuple[float, dict, dict]:
    """(busy, self time by name, self time by (name, p)).

    Busy time is the summed duration of the top-level operation spans, whose
    names start with ``prefix``; only spans inside operations are counted.
    """
    own = self_times(spans)
    by_name: dict = defaultdict(float)
    by_prime: dict = defaultdict(float)
    busy = 0.0
    roots: list[int] = []
    for i, (name, p, start, end, parent, _) in enumerate(spans):
        roots.append(i if parent is None else roots[parent])
        if not spans[roots[i]][0].startswith(prefix):
            continue
        if parent is None:
            busy += end - start
        elif not name.startswith(prefix):
            by_name[name] += own[i]
            by_prime[(name, p)] += own[i]
    return busy, by_name, by_prime


def durations(spans, name: str) -> list[float]:
    return [end - start for n, _, start, end, _, _ in spans if n == name]
