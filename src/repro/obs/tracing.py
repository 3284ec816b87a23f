"""Tracing spans: nested timed regions with a pluggable clock.

A span measures one named region of code::

    with tracer.span("admittance.retrain"):
        learner.retrain()

Spans nest — one ``exbox.handle_arrival`` can enclose the ``svm.fit``
it triggered, and a child's window lies inside its parent's. Every
finished span lands once on ``tracer.finished`` in completion order (a
child before its parent; callers may ``clear()`` between episodes),
and — when the tracer is wired to a registry — each duration is also
observed into a histogram named after the span, which is how
``admittance.retrain`` becomes a latency distribution in the exported
snapshot.

``span`` doubles as a decorator::

    @tracer.span("simulation.episode")
    def run_episode(...): ...

The :class:`NullTracer` keeps the same API at one no-op context-manager
per call, so instrumented code never branches on "is tracing on?".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, TypeVar

from repro.obs.clock import MONOTONIC, Clock
from repro.obs.registry import MetricsRegistry

__all__ = ["SpanRecord", "SpanHandle", "Tracer", "NullTracer"]

F = TypeVar("F", bound=Callable[..., Any])


@dataclass
class SpanRecord:
    """One finished (or still-open) timed region."""

    name: str
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


class SpanHandle:
    """Context manager / decorator for one named region of a tracer."""

    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._record: Optional[SpanRecord] = None

    def __enter__(self) -> SpanRecord:
        self._record = self._tracer._open(self._name)
        return self._record

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        record = self._record
        self._record = None
        if record is not None:
            self._tracer._close(record)

    def __call__(self, fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._tracer.span(self._name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]


class Tracer:
    """Collects finished :class:`SpanRecord` entries, in completion order.

    Parameters
    ----------
    clock:
        Zero-argument seconds source; inject a
        :class:`~repro.obs.clock.ManualClock` in tests.
    registry:
        Optional metrics registry; every finished span's duration is
        observed into ``registry.histogram(span_name)``.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock: Clock = clock if clock is not None else MONOTONIC
        self.registry = registry
        self.finished: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []

    def span(self, name: str) -> SpanHandle:
        """A context manager (and decorator) timing ``name``."""
        return SpanHandle(self, name)

    def _open(self, name: str) -> SpanRecord:
        record = SpanRecord(name=name, start=self.clock())
        self._stack.append(record)
        return record

    def _close(self, record: SpanRecord) -> None:
        record.end = self.clock()
        # Unwind to this record even if inner spans leaked (an exception
        # skipped their __exit__): close them at the same instant.
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = record.end
            self.finished.append(top)
            if top is record:
                break
        if self.registry is not None:
            self.registry.histogram(record.name).observe(record.duration)

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span named ``name``, in order."""
        return [s.duration for s in self.finished if s.name == name]

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def clear(self) -> None:
        """Drop finished spans (open spans are kept)."""
        self.finished.clear()


class _NullSpanHandle:
    """Shared inert context manager; also works as a decorator."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None

    def __call__(self, fn: F) -> F:
        return fn


class NullTracer(Tracer):
    """No-op tracer: ``span()`` hands back one shared inert handle."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, registry=None)
        self._handle = _NullSpanHandle()

    def span(self, name: str) -> SpanHandle:
        return self._handle  # type: ignore[return-value]
