"""Span recording around the benchmark's calls into learndim's layers.

Every op of a workload talks to the library only through a context object:
``ctx.call(name, fn, *args)`` for a call into a layer and
``ctx.count(key, n)`` for a work count read off that call's inputs or
outputs.  ``Direct`` makes the calls and sums the counts, so untraced runs
pay one extra Python call per layer call.  ``Tracer`` also records a span per
call (name, start, end, parent span, op id).  Spans stay in memory until the
run writes them out.

Span names are ``<layer>.<what>``; the layer is the learndim module the call
goes into, and each op runs under a root span named ``op``.  Spans come from
the benchmark's side of the boundary only, so calls the library makes
internally land in the span of the outer call.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Direct:
    """Untraced context: calls straight through and sums the work counts."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)

    def op(self, op_id, run):
        return run(self)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, n):
        self.counts[key] += n


class Tracer(Direct):
    """Traced context.  ``spans[i]`` is span i as (name, start, end, parent,
    op id), with parent -1 for an op's root span."""

    def __init__(self):
        super().__init__()
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op = -1

    def op(self, op_id, run):
        self._op = op_id
        return self.call("op", run, self)

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            # A tuple of plain values, which the collector stops tracking.
            self.spans[sid] = (name, start, perf_counter(), parent, self._op)
            self._stack.pop()


def summarize(spans: list[tuple], first: int, end: int) -> dict:
    """Calls, busy time and self time per span name, and self time per layer,
    over spans[first:end], which must hold whole ops.

    Self time is a span's duration minus the time its child spans cover.  One
    thread makes every call, so children of a span never overlap and their
    durations add up to the covered time.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, start, stop, parent, _ in spans[first:end]:
        if parent >= 0:
            child_time[parent] += stop - start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for sid in range(first, end):
        name, start, stop, _, _ = spans[sid]
        calls[name] += 1
        busy[name] += stop - start
        layer_self[name.split(".", 1)[0]] += stop - start - child_time[sid]
    return {"calls": dict(calls), "busy": busy, "layer_self": layer_self}
