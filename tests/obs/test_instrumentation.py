"""End-to-end instrumentation: a recording registry sees the pipeline,
the inert default changes nothing (bit-identical decisions)."""

import json

import numpy as np
import pytest

from repro.core.baselines import MaxClientAdmission
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.experiments.latency import (
    DECISION_SPAN,
    TRAINING_SPAN,
    measure_decision_latency,
    measure_training_latency,
)
from repro.obs import NULL_OBS, Obs, load_snapshot, snapshot, snapshot_json
from repro.obs.events import CAPACITY
from repro.testbed.wifi_testbed import WiFiTestbed


def _exbox_scheme(obs=None):
    return ExBoxScheme(
        batch_size=10,
        min_bootstrap_samples=30,
        max_bootstrap_samples=60,
        obs=obs,
    )


def _run_episode(obs=None, scheme=None):
    return run_closed_loop(
        scheme if scheme is not None else _exbox_scheme(obs),
        WiFiTestbed(),
        seed=7,
        duration_min=30,
        arrivals_per_min=2.0,
        obs=obs,
    )


class TestClosedLoopEpisode:
    """The ISSUE acceptance criterion, as a test."""

    @pytest.fixture(scope="class")
    def episode(self):
        obs = Obs.recording()
        result = _run_episode(obs=obs)
        return obs, result

    def test_decision_counters_are_nonzero(self, episode):
        obs, result = episode
        reg = obs.registry
        assert reg.counter("exbox.decisions.admitted").value > 0
        assert reg.counter("exbox.decisions.rejected").value > 0
        assert (
            reg.counter("exbox.decisions.admitted").value
            + reg.counter("exbox.decisions.rejected").value
            == result.admitted + result.rejected
        )

    def test_retrain_span_histogram_recorded(self, episode):
        obs, _ = episode
        hist = obs.registry.histogram("admittance.retrain")
        assert hist.count > 0
        assert hist.sum > 0
        assert obs.tracer.durations("admittance.retrain")
        assert obs.registry.counter("admittance.retrains").value == hist.count

    def test_decide_spans_and_events(self, episode):
        obs, result = episode
        decides = obs.registry.histogram("closedloop.decide")
        assert decides.count == result.admitted + result.rejected
        events = obs.events.of_type("admission_decision")
        assert len(events) == result.admitted + result.rejected
        assert sum(1 for e in events if e["admitted"]) == result.admitted

    def test_snapshot_round_trips(self, episode):
        obs, _ = episode
        snap = snapshot(obs.registry)
        rebuilt = load_snapshot(json.loads(json.dumps(snap)))
        assert snapshot(rebuilt) == snap
        assert snapshot_json(rebuilt) == snapshot_json(obs.registry)


class TestZeroOverheadDisabled:
    def test_exbox_episode_identical_with_and_without_obs(self):
        dark = _run_episode(obs=None)
        lit = _run_episode(obs=Obs.recording())
        assert dark.admitted == lit.admitted
        assert dark.rejected == lit.rejected
        assert dark.carried_flow_minutes == lit.carried_flow_minutes
        assert dark.ok_flow_minutes == lit.ok_flow_minutes

    def test_null_obs_records_nothing(self):
        result = run_closed_loop(
            MaxClientAdmission(10),
            WiFiTestbed(),
            seed=3,
            duration_min=10,
            obs=NULL_OBS,
        )
        assert result.admitted > 0
        assert len(NULL_OBS.registry) == 0
        assert len(NULL_OBS.events) == 0


class TestLatencyHelpersFeedRegistry:
    def test_decision_latency_lands_in_histogram(self, rng):
        from repro.experiments.datasets import build_testbed_dataset

        obs = Obs.recording()
        samples = build_testbed_dataset(WiFiTestbed(), [(1, 1, 0)] * 4, rng)
        latencies = measure_decision_latency(
            MaxClientAdmission(10), samples, repeats=2, obs=obs
        )
        hist = obs.registry.histogram(DECISION_SPAN)
        assert hist.count == len(latencies) == 8
        assert hist.sum == pytest.approx(sum(latencies))

    def test_training_latency_uses_svm_fit_span(self):
        obs = Obs.recording()
        latencies = measure_training_latency(30, repeats=2, obs=obs)
        hist = obs.registry.histogram(TRAINING_SPAN)
        assert len(latencies) == 2
        assert hist.count == 2
        assert obs.registry.counter("svm.fits").value == 2

    def test_training_latency_default_factory(self):
        # Regression: model_factory used to be a non-Optional Callable
        # with a None default; calling without a factory must work.
        latencies = measure_training_latency(20, repeats=1)
        assert len(latencies) == 1
        assert latencies[0] > 0

    def test_admission_quality_sets_eval_gauges(self, rng):
        from repro.experiments.datasets import build_testbed_dataset
        from repro.experiments.latency import measure_admission_quality

        obs = Obs.recording()
        samples = build_testbed_dataset(WiFiTestbed(), [(1, 1, 0)] * 6, rng)
        quality = measure_admission_quality(
            MaxClientAdmission(10), samples, obs=obs
        )
        for key in ("precision", "recall", "accuracy"):
            assert 0.0 <= quality[key] <= 1.0
            assert (
                obs.registry.gauge(f"latency.eval.{key}").value == quality[key]
            )

    def test_admission_quality_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="no labelled samples"):
            from repro.experiments.latency import measure_admission_quality

            measure_admission_quality(MaxClientAdmission(10), [])


class TestFlightRecorderWiring:
    """One ``admission_decision`` record per decision flows from the
    pipeline into the event log's bounded ring."""

    def test_closedloop_decisions_are_recorded(self):
        obs = Obs.recording()
        result = _run_episode(obs=obs)
        total = result.admitted + result.rejected
        records = obs.events.of_type("admission_decision")
        assert len(records) == total < CAPACITY
        admitted_flags = [r["admitted"] for r in records]
        assert sum(admitted_flags) == result.admitted
        assert any(admitted_flags) and not all(admitted_flags)
        # Online-phase records carry the SVM margin and the decision
        # time; every record dumps as one valid JSON line.
        online = [r for r in records if r["phase"] == "online"]
        assert online and all(r["margin"] is not None for r in online)
        assert all(r["elapsed_s"] >= 0 for r in records)
        for line in obs.events.dump().splitlines():
            parsed = json.loads(line)
            if parsed["event"] == "admission_decision":
                assert parsed["scheme"] == "ExBox"
                assert isinstance(parsed["matrix"], list)

    def test_exbox_handle_arrival_records_with_elapsed(self):
        from repro.core.exbox import ExBox
        from repro.obs import ManualClock
        from repro.traffic.flows import FlowRequest

        obs = Obs.recording(clock=ManualClock(tick=0.001))
        exbox = ExBox.with_defaults(batch_size=10, obs=obs)
        decision = exbox.handle_arrival(
            FlowRequest(app_class="streaming", snr_db=30.0, client_id=1)
        )
        (record,) = obs.events.records
        assert record["event"] == "admission_decision"
        assert record["phase"] == "bootstrap"
        assert record["admitted"] is True
        assert record["margin"] is None  # bootstrap admits unconditionally
        assert record["elapsed_s"] is not None and record["elapsed_s"] > 0
        # The matrix the decision saw, not the one after admission.
        assert record["matrix"] == decision.event.matrix_before == (0, 0, 0)

    def test_null_obs_recorder_stays_empty(self):
        run_closed_loop(
            MaxClientAdmission(10),
            WiFiTestbed(),
            seed=3,
            duration_min=5,
            obs=NULL_OBS,
        )
        assert NULL_OBS.events.enabled is False
        assert len(NULL_OBS.events) == 0
        assert NULL_OBS.events.dropped == 0


class TestOneRecordPerArrival:
    """A recording ExBox serving more arrivals than the ring holds keeps
    exactly one record per decision and the newest CAPACITY of them."""

    N_ARRIVALS = 1000

    def test_ring_holds_the_newest_decisions(self, estimator):
        from repro.core.exbox import ExBox
        from repro.traffic.flows import APP_CLASSES, FlowRequest

        obs = Obs.recording()
        box = ExBox.with_defaults(
            batch_size=10,
            min_bootstrap_samples=30,
            max_bootstrap_samples=60,
            cv_jobs=1,
            obs=obs,
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(11)
        testbed = WiFiTestbed()
        decisions = []
        for i in range(self.N_ARRIVALS):
            cls = APP_CLASSES[int(rng.integers(3))]
            before = len(obs.events.records) + obs.events.dropped
            decision = box.handle_arrival(FlowRequest(client_id=i, app_class=cls))
            assert len(obs.events.records) + obs.events.dropped == before + 1
            assert obs.events.records[-1]["event"] == "admission_decision"
            decisions.append(decision)
            if i < 120:  # learn until online, then only serve
                specs = [(f.app_class, f.snr_db) for f in box.active_flows]
                box.report_outcome(decision, testbed.run_flows(specs, rng=rng))
            keep = int(rng.integers(0, 6))
            while len(box.active_flows) > keep:
                box.handle_departure(box.active_flows[0])

        records = obs.events.of_type("admission_decision")
        assert len(obs.events) == len(records) == CAPACITY
        # One phase_transition event shares the stream, long evicted, so
        # the retained decisions have contiguous seqs.
        assert obs.events.dropped == self.N_ARRIVALS + 1 - CAPACITY
        first = records[0]["seq"]
        assert [r["seq"] for r in records] == list(range(first, first + CAPACITY))
        newest = decisions[-CAPACITY:]
        assert all(d.phase.value == "online" for d in newest)
        for record, decision in zip(records, newest):
            assert record["matrix"] == decision.event.matrix_before
            assert record["admitted"] == decision.admitted
            assert record["margin"] == decision.margin
            assert record["app_class"] == decision.app_class


def test_recorder_and_snapshot_diffing_are_gone():
    import importlib

    for module in ("repro.obs.recorder", "repro.obs.diffing"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    assert not hasattr(Obs.recording(), "recorder")
