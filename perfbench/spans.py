"""In-memory spans recorded around calls into the program's modules.

A span is (name, start, end, parent): parent is the index of the span that was
open when this one began, or -1. Spans are kept in a list and written out
when the benchmark ends. Wrapping happens from outside: a function is
replaced by a recording wrapper in the namespace of the module that looks it
up, and put back when tracing stops.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx] = self.spans[idx]._replace(end=self.clock())

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: object, attr: str, name: str, wrapper: Callable = None) -> None:
        """Replace owner.attr by a recording wrapper until `unpatch_all`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original) if wrapper else self.wrap(original, name))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children.get(i, ())) for i, s in enumerate(spans)]
