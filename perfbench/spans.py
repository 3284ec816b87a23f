"""The benchmark's own span recorder.

Kept in memory and independent of ``repro.obs``, so a change to the
library's observability layer cannot change the instrument that
measures it. A span records its name, start, end and the index of the
span that was open when it started (its parent). Layer entry points are
wrapped from the outside by :func:`instrument`, which patches the public
methods named in a target list for the duration of a ``with`` block.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans on one thread plus named work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def self_times(self) -> List[float]:
        return self_times(self.spans)

    def self_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Complete ("X") events in microseconds, one thread."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": s.parent},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is None:
            continue
        parent = spans[span.parent]
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(span.parent, []).append((start, end))
    return [
        span.duration - _covered(children.get(i, ())) for i, span in enumerate(spans)
    ]


# A target is (owner class, method name, layer, work counter). The work
# counter maps the call's (self, args, kwargs) to {counter name: amount};
# it is counted only for the outermost span of a layer, so a layer that
# calls itself (testbed.run_flows -> cell.allocate) counts once.
Work = Callable[[Any, Tuple[Any, ...], Dict[str, Any]], Dict[str, int]]
Target = Tuple[type, str, str, Work]


@contextmanager
def instrument(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap each target method in a span of its layer; restore on exit."""
    originals = []
    for owner, attr, layer, work in targets:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrapped(recorder, original, layer, work))
    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _wrapped(
    recorder: SpanRecorder, original: Callable[..., Any], layer: str, work: Work
) -> Callable[..., Any]:
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if recorder.current != layer:
            for name, n in work(self, args, kwargs).items():
                recorder.count(name, n)
        with recorder.span(layer):
            return original(self, *args, **kwargs)

    wrapper.__name__ = getattr(original, "__name__", "wrapper")
    return wrapper
