"""The Obs facade: wiring and NULL_OBS inertness."""

import pytest

from repro.obs import (
    NULL_OBS,
    EventLog,
    ManualClock,
    MetricsRegistry,
    Obs,
    Tracer,
)


def test_recording_wires_tracer_to_registry():
    clock = ManualClock()
    obs = Obs.recording(clock=clock)
    assert obs.enabled is True
    with obs.span("admittance.retrain"):
        clock.advance(0.5)
    hist = obs.registry.histogram("admittance.retrain")
    assert hist.count == 1
    assert abs(hist.sum - 0.5) < 1e-12


def test_delegation_methods():
    obs = Obs.recording(clock=ManualClock())
    obs.counter("c").inc()
    obs.gauge("g").set(3)
    obs.histogram("h", buckets=[1.0]).observe(0.5)
    event = obs.emit("phase_transition", phase="online")
    assert obs.registry.counter("c").value == 1
    assert event["event"] == "phase_transition"
    assert obs.events.of_type("phase_transition") == [event]


def test_null_obs_is_shared_and_inert():
    assert NULL_OBS.enabled is False
    NULL_OBS.counter("x").inc(10)
    NULL_OBS.gauge("y").set(5)
    with NULL_OBS.span("z"):
        pass
    assert NULL_OBS.emit("anything", k=1) == {}
    assert len(NULL_OBS.registry) == 0


def test_event_clock_is_separate_from_span_clock():
    span_clock = ManualClock(start=100.0)
    event_clock = ManualClock(start=7.0)
    registry = MetricsRegistry()
    obs = Obs(
        registry,
        Tracer(clock=span_clock, registry=registry),
        EventLog(clock=event_clock),
    )
    event = obs.emit("tick")
    assert event["time"] == pytest.approx(7.0)


def test_constructed_obs_reaches_event_sinks():
    seen = []
    registry = MetricsRegistry()
    obs = Obs(registry, Tracer(registry=registry), EventLog(sinks=[seen.append]))
    event = obs.emit("phase_transition", phase="online")
    assert seen == [event]


def test_recording_events_are_bounded_and_untimed():
    obs = Obs.recording(clock=ManualClock())
    event = obs.emit("tick")
    assert "time" not in event
    assert obs.events.sinks == []
    assert obs.events.records.maxlen is not None
