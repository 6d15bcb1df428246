"""In-memory spans around the package's layer entry points.

The benchmark patches each entry point under the name its caller looks it
up by (``cli.delta_by_routes``, ``honesty.evolve``, ...), so the program
itself is untouched.  Every call becomes one span: name, parent span,
start, end and the work counters read from its arguments or return value.
A span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[[tuple, Any], tuple]


@dataclass(frozen=True)
class Target:
    """One patch point: ``module.attr`` is replaced by a span wrapper."""

    module: Any
    attr: str
    span: str
    counter: Counter | None = None


class Tracer:
    def __init__(self) -> None:
        # [name, parent index, start, end, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, ()]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        saved = [(t.module, t.attr, getattr(t.module, t.attr)) for t in targets]
        try:
            for t, (_, _, fn) in zip(targets, saved):
                setattr(t.module, t.attr, self.wrap(t.span, fn, t.counter))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: list | None = None


def aggregate(spans: list[list]) -> dict[str, SpanStats]:
    """Calls, inclusive and self time, and the counter tuples of each name."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for i, (name, _, start, end, counters) in enumerate(spans):
        s = stats.setdefault(name, SpanStats(counters=[]))
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - child[i]
        s.counters.append(counters)
    return stats


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Measured seconds one span adds to a call: the median over ``repeats``
    of the wrapped minus the bare time of a no-op, per call."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop, lambda a, r: (0,))
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))
