"""Outside-in span tracer for ridkit.

The program is not edited: the tracer replaces a module attribute with a
wrapper that records a span around each call, and puts the original back
afterwards. A function must be patched under the name its caller looks it
up by. `ridkit.flow` does `from .autodiff import value_and_gradients`, so
the flow's calls go through `ridkit.flow.value_and_gradients`; patching
`ridkit.autodiff.value_and_gradients` would see none of them. Backend
kernels are looked up as `backend.X` at call time, so `ridkit.backend.X`
is the name to patch for them.

Spans are held in memory until `drain()`. Each thread keeps its own span
stack; work submitted through `pool_class()` starts its stack under the
span that submitted it, so a fold running on a worker thread is a child of
the weights stage that scheduled it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    ok: bool = True
    rows: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class TracePoint:
    """One attribute to wrap: `owner.attr` records spans named `name`.

    `rows(args, kwargs)` and `nbytes(args, kwargs, result)` give the work
    size of a call; they run after the span has ended, so their cost is
    not timed.
    """

    owner: str
    attr: str
    name: str
    rows: Callable | None = None
    nbytes: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []  # list.append is atomic, so threads share it
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, point: TracePoint, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else None, point.name, 0.0, 0.0)
        stack.append(span.id)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.ok = False
            raise
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)
        if point.rows is not None:
            span.rows = int(point.rows(args, kwargs))
        if point.nbytes is not None:
            span.nbytes = int(point.nbytes(args, kwargs, result))
        return result

    def wrap(self, point: TracePoint, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(point, fn, args, kwargs)

        return traced

    def _adopt(self, parent: int | None, fn: Callable, args: tuple, kwargs: dict):
        saved = getattr(self._local, "stack", None)
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def pool_class(self) -> type:
        """A ThreadPoolExecutor whose tasks are children of the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer.current(), fn, args, kwargs)

        return TracedPool

    @contextmanager
    def installed(self, modules: dict, points, pools=()):
        """Patches every point (and each `module.attr` in `pools` with
        pool_class()) for the duration of the block.

        `modules` maps an owner name to the imported module object.
        Points whose attribute does not exist are skipped and returned in
        the yielded list, so a renamed function shows as untraced instead
        of stopping the run.
        """
        saved, missing = [], []
        try:
            for point in points:
                owner = modules[point.owner]
                fn = getattr(owner, point.attr, None)
                if fn is None:
                    missing.append(f"{point.owner}.{point.attr}")
                    continue
                saved.append((owner, point.attr, fn))
                setattr(owner, point.attr, self.wrap(point, fn))
            for owner_name, attr in pools:
                owner = modules[owner_name]
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.pool_class())
            yield missing
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def drain(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (total duration), self_s, rows, bytes.

    Self time is a span's duration minus the part of it that its direct
    children cover. Children on different threads may overlap each other,
    so the covered part is the union of their intervals, not their sum.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "bytes": 0}
    )
    for sp in spans:
        st = stats[sp.name]
        duration = sp.end - sp.start
        st["calls"] += 1
        st["s"] += duration
        st["self_s"] += duration - covered_length(children.get(sp.id, ()), sp.start, sp.end)
        st["rows"] += sp.rows
        st["bytes"] += sp.nbytes
    return dict(stats)
