"""Chrome trace-event export: span trees become a loadable timeline."""

import json

import pytest

from repro.obs import (
    ManualClock,
    MetricsRegistry,
    Tracer,
    to_chrome_trace,
    write_chrome_trace,
)


def nested_tracer():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("exbox.handle_arrival"):
        clock.advance(0.001)
        with tracer.span("exbox.decide"):
            clock.advance(0.004)
        clock.advance(0.0005)
    clock.advance(0.01)
    with tracer.span("admittance.retrain"):
        clock.advance(0.3)
    return tracer


class TestToChromeTrace:
    def test_envelope_shape(self):
        payload = to_chrome_trace(nested_tracer())
        assert payload["displayTimeUnit"] == "ms"
        assert isinstance(payload["traceEvents"], list)

    def test_one_complete_event_per_span(self):
        events = to_chrome_trace(nested_tracer())["traceEvents"]
        # Completion order: a child closes before its parent.
        assert [e["name"] for e in events] == [
            "exbox.decide",
            "exbox.handle_arrival",
            "admittance.retrain",
        ]
        assert all(e["ph"] == "X" for e in events)
        assert all(e["cat"] == "repro" for e in events)
        assert all(e["pid"] == 1 and e["tid"] == 1 for e in events)

    def test_timestamps_and_durations_in_microseconds(self):
        events = {
            e["name"]: e for e in to_chrome_trace(nested_tracer())["traceEvents"]
        }
        arrival = events["exbox.handle_arrival"]
        decide = events["exbox.decide"]
        assert arrival["ts"] == pytest.approx(0.0)
        assert arrival["dur"] == pytest.approx(5500.0)  # 5.5 ms
        assert decide["ts"] == pytest.approx(1000.0)
        assert decide["dur"] == pytest.approx(4000.0)
        # The child's window nests inside the parent's — exactly what
        # chrome://tracing uses to reconstruct the hierarchy.
        assert arrival["ts"] <= decide["ts"]
        assert decide["ts"] + decide["dur"] <= arrival["ts"] + arrival["dur"]
        retrain = events["admittance.retrain"]
        assert retrain["dur"] == pytest.approx(300000.0)

    def test_one_event_per_finished_span_window(self):
        # (ts, dur) in µs, as the ManualClock fixture sets them.
        events = to_chrome_trace(nested_tracer())["traceEvents"]
        assert len(events) == 3
        assert {e["name"]: (e["ts"], e["dur"]) for e in events} == {
            "exbox.handle_arrival": (0.0, pytest.approx(5500.0)),
            "exbox.decide": (pytest.approx(1000.0), pytest.approx(4000.0)),
            "admittance.retrain": (pytest.approx(15500.0), pytest.approx(300000.0)),
        }

    def test_open_spans_are_omitted(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        handle = tracer.span("never.closed")
        handle.__enter__()
        clock.advance(1.0)
        assert to_chrome_trace(tracer)["traceEvents"] == []

    def test_meta_becomes_other_data(self):
        payload = to_chrome_trace(nested_tracer(), meta={"suite": "latency"})
        assert payload["otherData"] == {"suite": "latency"}
        assert "otherData" not in to_chrome_trace(nested_tracer())

    def test_empty_tracer_exports_empty_timeline(self):
        payload = to_chrome_trace(Tracer(clock=ManualClock()))
        assert payload["traceEvents"] == []

    def test_span_fed_histograms_and_trace_agree(self):
        clock = ManualClock()
        registry = MetricsRegistry()
        tracer = Tracer(clock=clock, registry=registry)
        with tracer.span("latency.decision"):
            clock.advance(0.002)
        (event,) = to_chrome_trace(tracer)["traceEvents"]
        hist = registry.histogram("latency.decision")
        assert hist.sum == pytest.approx(event["dur"] / 1e6)


class TestWriteChromeTrace:
    def test_writes_loadable_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", nested_tracer())
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 3

    def test_output_is_deterministic(self, tmp_path):
        a = write_chrome_trace(tmp_path / "a.json", nested_tracer())
        b = write_chrome_trace(tmp_path / "b.json", nested_tracer())
        assert a.read_text() == b.read_text()
