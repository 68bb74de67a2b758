"""In-memory spans for the traced benchmark run.

Spans are recorded only from the benchmark's own wrappers around calls
into the program's public functions and methods; the program itself is
not changed.  Every unit of work (an indexed video, a streamed chunk, a
query) starts a *request* on the thread that runs it, and every other
request is traced, so one run yields both per-layer numbers (from the
traced half) and the tracing overhead (traced against untraced latency
of the same workload in the same run).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "Patches", "spanned", "self_times", "self_time_by_name"]


@dataclass(frozen=True)
class Span:
    """One finished span: a named interval inside one request."""

    span_id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of traced requests; counts work on every request.

    Spans open only while the calling thread's current request is
    traced.  Counters (work done, bytes written) are kept for every
    request, because they are read per unit of work and cost a dict
    update.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def begin_request(self, request_id: int, traced: bool) -> None:
        """Make *request_id* the calling thread's current request."""
        self._local.request = request_id
        self._local.traced = traced
        self._local.stack = []

    @property
    def traced(self) -> bool:
        """Whether the calling thread's current request is traced."""
        return getattr(self._local, "traced", False)

    @contextmanager
    def span(self, name: str):
        """Record *name* around the body when the request is traced."""
        if not self.traced:
            yield
            return
        stack = self._local.stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, self._local.request, name, start, end)
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> self time: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration - _covered(children[span.span_id], span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """A wrapper factory: ``spanned(tracer, name)(fn)`` records *name* around *fn*."""

    def make(original):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


class Patches:
    """Attribute replacements that are undone, in reverse, on close."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def spanned(self, tracer: Tracer, owner, attr: str, name: str) -> None:
        """Record span *name* around every call of ``owner.attr``."""
        self.replace(owner, attr, spanned(tracer, name))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Patches:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
