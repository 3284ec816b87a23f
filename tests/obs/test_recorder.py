"""The event log's ring as decision flight recorder: retention,
eviction, sequence numbers and JSON-lines dumps."""

import io
import json

import pytest

from repro.obs import EventLog, NullEventLog
from repro.obs.events import CAPACITY


def record_n(log, n, **overrides):
    for i in range(n):
        fields = dict(
            matrix=(i, 0, 1),
            app_class="video",
            snr_level=0,
            phase="online",
            admitted=i % 2 == 0,
            margin=0.1 * i,
            elapsed_s=0.001,
        )
        fields.update(overrides)
        log.emit("admission_decision", **fields)


class TestRingBuffer:
    def test_default_capacity(self):
        log = EventLog()
        assert log.records.maxlen == CAPACITY == 256
        record_n(log, CAPACITY + 1)
        assert len(log) == CAPACITY

    def test_retains_up_to_capacity(self):
        log = EventLog()
        record_n(log, 3)
        assert len(log) == 3
        assert log.dropped == 0

    def test_evicts_oldest_when_full(self):
        log = EventLog()
        record_n(log, CAPACITY + 10)
        assert len(log) == CAPACITY
        assert log.dropped == 10
        # Oldest first; only the newest CAPACITY survive, and seq keeps
        # counting across the evictions.
        assert [e["seq"] for e in log.records] == list(range(10, CAPACITY + 10))

    def test_last_n(self):
        log = EventLog()
        record_n(log, 5)

        def seqs(last_n):
            return [json.loads(line)["seq"] for line in log.dump(last_n=last_n).splitlines()]

        assert seqs(2) == [3, 4]
        assert log.dump(last_n=0) == ""
        assert seqs(99) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            log.dump(last_n=-1)

    def test_clear_keeps_sequence_numbering(self):
        log = EventLog()
        record_n(log, 3)
        log.clear()
        assert len(log) == 0
        assert log.dropped == 3
        record_n(log, 1)
        assert log.records[0]["seq"] == 3


class TestDump:
    def test_dump_is_valid_json_lines(self):
        log = EventLog()
        record_n(log, 3)
        lines = log.dump().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [p["seq"] for p in parsed] == [0, 1, 2]
        assert parsed[0]["event"] == "admission_decision"
        assert parsed[0]["matrix"] == [0, 0, 1]
        assert parsed[0]["app_class"] == "video"
        assert parsed[0]["phase"] == "online"
        assert parsed[0]["admitted"] is True
        assert "margin" in parsed[0] and "elapsed_s" in parsed[0]

    def test_dump_keys_are_sorted(self):
        log = EventLog()
        record_n(log, 1)
        line = log.dump().splitlines()[0]
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_dump_is_deterministic(self):
        a, b = EventLog(), EventLog()
        record_n(a, 5)
        record_n(b, 5)
        assert a.dump() == b.dump()
        # Past the ring's capacity too: both keep the same newest window.
        record_n(a, CAPACITY)
        record_n(b, CAPACITY)
        assert a.dump() == b.dump()

    def test_dump_last_n_window(self):
        log = EventLog()
        record_n(log, 10)
        lines = log.dump(last_n=3).splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [7, 8, 9]

    def test_dump_writes_to_stream(self):
        log = EventLog()
        record_n(log, 2)
        buf = io.StringIO()
        text = log.dump(stream=buf)
        assert buf.getvalue() == text

    def test_empty_dump_is_empty_string(self):
        assert EventLog().dump() == ""

    def test_extra_fields_are_inlined(self):
        log = EventLog()
        record_n(log, 1, scheme="ExBox", minute=12)
        parsed = json.loads(log.dump())
        assert parsed["scheme"] == "ExBox"
        assert parsed["minute"] == 12
        assert "extra" not in parsed


class TestNullRecorder:
    def test_disabled_and_empty(self):
        log = NullEventLog()
        assert log.enabled is False
        record_n(log, 5)
        assert len(log) == 0
        assert log.dropped == 0
        assert log.dump() == ""

    def test_record_returns_shared_sentinel(self):
        a = NullEventLog().emit("admission_decision", matrix=(1,), admitted=True)
        b = NullEventLog().emit("phase_transition", phase="online")
        assert a is b
