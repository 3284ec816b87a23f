"""Structured events: sequencing, sinks, logging bridge, null log."""

import io
import json
import logging

import pytest

from repro.obs import EventLog, ManualClock, NullEventLog, jsonl_sink, logging_sink
from repro.obs.events import CAPACITY


def test_emit_sequences_and_keeps_records():
    log = EventLog()
    first = log.emit("admission_decision", app_class="web", admitted=True)
    second = log.emit("phase_transition", phase="online")
    assert first["seq"] == 0 and second["seq"] == 1
    assert "time" not in first  # no clock configured by default
    assert len(log) == 2
    assert log.of_type("phase_transition") == [second]
    log.clear()
    assert len(log) == 0
    # The sequence keeps counting after a clear.
    assert log.emit("x")["seq"] == 2


def test_clock_adds_time_field():
    clock = ManualClock(start=5.0)
    log = EventLog(clock=clock)
    event = log.emit("tick")
    assert event["time"] == pytest.approx(5.0)


def test_sinks_see_events_the_ring_evicted():
    seen = []
    log = EventLog(sinks=[seen.append])
    for i in range(CAPACITY + 3):
        log.emit("tick", i=i)
    assert len(log) == CAPACITY
    assert [e["i"] for e in seen] == list(range(CAPACITY + 3))


def test_jsonl_sink_writes_sorted_parseable_lines():
    buf = io.StringIO()
    log = EventLog(sinks=[jsonl_sink(buf)])
    log.emit("admission_decision", admitted=True, app_class="web")
    log.emit("revalidation_revoked", flows=[3, 1])
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    decoded = [json.loads(line) for line in lines]
    assert decoded[0]["event"] == "admission_decision"
    assert decoded[1]["flows"] == [3, 1]
    # sort_keys makes the byte stream deterministic.
    assert lines[0].index('"admitted"') < lines[0].index('"event"')


def test_logging_sink_bridges_to_stdlib_logging(caplog):
    logger = logging.getLogger("repro.obs.test")
    log = EventLog(sinks=[logging_sink(logger)])
    with caplog.at_level(logging.INFO, logger="repro.obs.test"):
        log.emit("phase_transition", phase="online", samples=40)
    (record,) = caplog.records
    assert record.getMessage().startswith("phase_transition ")
    assert record.event["samples"] == 40


def test_null_event_log_is_inert():
    log = NullEventLog()
    out = log.emit("anything", payload=[1, 2, 3])
    assert out == {}
    assert len(log) == 0
    assert log.enabled is False
