"""Structured event logging: a bounded JSON-lines record with a logging bridge.

Counters say *how often*; events say *what exactly happened*. Each event
is one flat dict — an event type, a monotonically increasing sequence
number, an optional clock timestamp, and the caller's fields — suitable
for JSON-lines files, test assertions, or forwarding into stdlib
``logging``.

The log keeps the last :data:`CAPACITY` events in a ring, so it doubles
as the decision flight recorder: one ``admission_decision`` event per
arrival, whose ``seq`` survives eviction and ``clear()`` and whose
``dump()`` is the post-mortem view of the last decisions. Sinks see
every event, evicted or not; they are plain callables taking the
finished event dict, so fan-out is composition, not configuration::

    log = EventLog(sinks=[jsonl_sink(fp), logging_sink(logger)])
    log.emit("admission_decision", app_class="web", admitted=True)

Field values must be JSON-serializable scalars or small containers; the
emitter serializes with ``sort_keys`` so byte output is deterministic
for a given event stream.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from typing import Any, Callable, Deque, Dict, IO, List, Optional, Sequence

from repro.obs.clock import Clock

__all__ = [
    "CAPACITY",
    "EventDict",
    "EventSink",
    "EventLog",
    "NullEventLog",
    "jsonl_sink",
    "logging_sink",
]

EventDict = Dict[str, Any]
EventSink = Callable[[EventDict], None]

#: Events an :class:`EventLog` retains; older ones are evicted. Enough
#: for a post-mortem window without holding a long run's full history.
CAPACITY = 256


def _json_line(event: EventDict) -> str:
    return json.dumps(event, sort_keys=True, default=str)


def jsonl_sink(stream: IO[str]) -> EventSink:
    """A sink writing one sorted-key JSON object per line to ``stream``."""

    def _write(event: EventDict) -> None:
        stream.write(_json_line(event))
        stream.write("\n")

    return _write


def logging_sink(
    logger: Optional[logging.Logger] = None, level: int = logging.INFO
) -> EventSink:
    """A sink forwarding events into stdlib :mod:`logging`.

    The record message is the event type; the full dict rides along both
    as the formatted payload and as ``record.event`` for structured
    handlers.
    """
    log = logger if logger is not None else logging.getLogger("repro.obs")

    def _forward(event: EventDict) -> None:
        log.log(
            level,
            "%s %s",
            event.get("event", "?"),
            json.dumps(event, sort_keys=True, default=str),
            extra={"event": dict(event)},
        )

    return _forward


class EventLog:
    """Bounded in-memory event ring with optional sink fan-out.

    Parameters
    ----------
    sinks:
        Callables invoked with each finished event dict.
    clock:
        Optional seconds source; when given, each event carries a
        ``"time"`` field. Left out by default so recorded streams are
        bit-deterministic (sequence numbers alone order them).
    """

    enabled: bool = True

    def __init__(
        self,
        sinks: Optional[Sequence[EventSink]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.sinks: List[EventSink] = list(sinks or [])
        self.clock = clock
        self.records: Deque[EventDict] = deque(maxlen=CAPACITY)
        self._seq = 0

    def emit(self, event_type: str, **fields: Any) -> EventDict:
        """Record one event; returns the finished dict."""
        event: EventDict = {"event": event_type, "seq": self._seq}
        if self.clock is not None:
            event["time"] = self.clock()
        event.update(fields)
        self._seq += 1
        self.records.append(event)
        for sink in self.sinks:
            sink(event)
        return event

    def of_type(self, event_type: str) -> List[EventDict]:
        """Retained events of one type, in emission order."""
        return [e for e in self.records if e["event"] == event_type]

    @property
    def dropped(self) -> int:
        """Emitted events the ring no longer holds (evicted or cleared)."""
        return self._seq - len(self.records)

    def dump(
        self, stream: Optional[IO[str]] = None, last_n: Optional[int] = None
    ) -> str:
        """The retained events as sorted-key JSON-lines, oldest first.

        Returns the text; also writes it to ``stream`` when one is given.
        ``last_n`` limits the dump to the most recent events (a
        post-mortem window). A given event stream dumps byte-identically.
        """
        records = list(self.records)
        if last_n is not None:
            if last_n < 0:
                raise ValueError("last_n must be >= 0")
            records = records[max(len(records) - last_n, 0):]
        text = "".join(_json_line(event) + "\n" for event in records)
        if stream is not None:
            stream.write(text)
        return text

    def clear(self) -> None:
        """Drop retained events (sequence numbering continues)."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class NullEventLog(EventLog):
    """No-op event log: ``emit`` allocates nothing and keeps nothing."""

    enabled = False
    _EMPTY: EventDict = {}

    def emit(self, event_type: str, **fields: Any) -> EventDict:
        return self._EMPTY
