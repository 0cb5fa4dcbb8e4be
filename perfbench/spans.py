"""Spans around the stack's public methods, recorded from the benchmark.

A :class:`Tracer` wraps named methods on live instances (an instance
attribute shadows the class method, so the program's own calls through
``self.x.method(...)`` go through the wrapper) and records one span per call:
its id, parent span, request id, name, start and end.  Spans are kept in
memory and written out when the run ends.

Work that the stack hands to a thread pool keeps its parent: while a tracer
is attached, ``ThreadPoolExecutor.submit`` carries the submitting thread's
current span into the task.

A span's self time is its duration minus the part of it that its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a request's root span
    request: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with method wrapping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._wrapped: Dict[Tuple[int, str], object] = {}
        self._submit = None

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent, request = stack[-1]
        else:
            parent, request = 0, next(self._requests)
        sid = next(self._ids)
        stack.append((sid, request))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, request, name, start, end))

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``obj.method``."""
        key = (id(obj), method)
        if key in self._wrapped:
            return
        original = getattr(obj, method)
        call = self.call

        def traced(*args, **kwargs):
            result = call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(obj, method, traced)
        self._wrapped[key] = obj

    def attach(self) -> None:
        """Carry span context into thread-pool tasks until :meth:`detach`."""
        if self._submit is not None:
            return
        original = self._submit = ThreadPoolExecutor.submit
        stack_of = self._stack

        def submit(executor, fn, /, *args, **kwargs):
            stack = stack_of()
            if not stack:
                return original(executor, fn, *args, **kwargs)
            context = stack[-1]

            def run(*a, **k):
                task_stack = stack_of()
                task_stack.append(context)
                try:
                    return fn(*a, **k)
                finally:
                    task_stack.pop()

            return original(executor, run, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    def detach(self) -> None:
        """Remove every wrapper and restore ``ThreadPoolExecutor.submit``."""
        for (_, method), obj in self._wrapped.items():
            delattr(obj, method)
        self._wrapped.clear()
        if self._submit is not None:
            ThreadPoolExecutor.submit = self._submit
            self._submit = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": list(Span._fields), "spans": self.spans}, f)


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }
