"""In-memory span tracer that wraps a package's public functions from outside.

A wrapped call records one span: name, start, end, the index of the span
that was open when it started (its parent, -1 at top level) and the current
sample id. Spans stay in a list until the run ends; ``aggregate`` then turns
them into per-name call counts, inclusive times and self times.

Functions imported by name (``from bwcache.tensor import matmul``) are bound
in several module namespaces, so ``install`` rebinds every binding of the
original object across the package, not only the defining module's.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    sample: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self.sample: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped to record a span, calling ``count(counters, args)`` first."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if count is not None:
                count(self.counters, args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.sample)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, module, attr: str, count: Callable | None = None) -> None:
        """Trace ``module.attr`` as span ``<module leaf>.<attr>`` wherever it is bound."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        traced = self.wrap(name, original, count)
        root = module.__name__.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == root or mod_name.startswith(root + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def aggregate(spans: list[Span | None]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds."""
    if any(s is None for s in spans):
        raise ValueError("aggregate called while spans are still open")
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += self_s
    return out
