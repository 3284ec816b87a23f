"""Tests for the ExBox middlebox facade."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier, Phase
from repro.core.exbox import ExBox
from repro.classification.classifier import FlowClassifier
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.flows import FlowRequest, STREAMING, WEB
from repro.traffic.generators import generator_for_class


@pytest.fixture
def exbox(estimator):
    box = ExBox.with_defaults(batch_size=10)
    box.qoe_estimator = estimator
    return box


def _drive_bootstrap(box, testbed, rng, n=60):
    """Run arrivals through bootstrap using testbed measurements."""
    from repro.traffic.flows import APP_CLASSES

    for i in range(n):
        if box.admittance.is_online:
            break
        cls = APP_CLASSES[int(rng.integers(3))]
        decision = box.handle_arrival(FlowRequest(client_id=i, app_class=cls))
        specs = [(f.app_class, f.snr_db) for f in box.active_flows]
        run = testbed.run_flows(specs[: testbed.max_clients], rng=rng)
        box.report_outcome(decision, run)
        # Randomly retire flows to keep the matrix within testbed size.
        while len(box.active_flows) > 5:
            box.handle_departure(box.active_flows[0])


class TestArrivalHandling:
    def test_bootstrap_admits_everything(self, exbox):
        decision = exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        assert decision.admitted
        assert decision.phase is Phase.BOOTSTRAP
        assert decision.flow is not None
        assert exbox.current_matrix.total_flows == 1

    def test_departure_updates_matrix(self, exbox):
        decision = exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        exbox.handle_departure(decision.flow)
        assert exbox.current_matrix.total_flows == 0

    def test_departure_of_unknown_flow_raises(self, exbox):
        from repro.traffic.flows import Flow

        with pytest.raises(KeyError):
            exbox.handle_departure(Flow(app_class=WEB, snr_db=53.0, client_id=9))

    def test_unclassified_without_classifier_raises(self, exbox):
        with pytest.raises(ValueError):
            exbox.handle_arrival(FlowRequest(client_id=1))

    def test_classifier_resolves_app_class(self, estimator):
        rng = np.random.default_rng(31)
        box = ExBox.with_defaults(batch_size=10)
        box.qoe_estimator = estimator
        box.flow_classifier = FlowClassifier.train_synthetic(
            rng, flows_per_class=10, trace_duration_s=12.0
        )
        packets = list(generator_for_class(STREAMING).generate(12.0, rng))
        decision = box.handle_arrival(FlowRequest(client_id=1), packets=packets)
        assert decision.app_class in ("web", "streaming", "conferencing")

    def test_learning_loop_reaches_online(self, exbox):
        rng = np.random.default_rng(32)
        testbed = WiFiTestbed()
        _drive_bootstrap(exbox, testbed, rng, n=120)
        assert exbox.admittance.is_online

    def test_online_rejection_applies_policy(self, estimator):
        box = ExBox.with_defaults(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(33)
        testbed = WiFiTestbed()
        _drive_bootstrap(box, testbed, rng, n=120)
        # Fill the cell well beyond capacity and ask for one more flow.
        for i in range(8):
            box.handle_arrival(FlowRequest(client_id=100 + i, app_class=STREAMING))
        decision = box.handle_arrival(FlowRequest(client_id=200, app_class=WEB))
        if not decision.admitted:
            assert decision.policy_outcome is not None
            assert box.policy.log


class TestDynamics:
    def test_update_flow_snr_moves_matrix_slot(self, estimator):
        box = ExBox.with_defaults(batch_size=10, n_snr_levels=2)
        box.qoe_estimator = estimator
        decision = box.handle_arrival(
            FlowRequest(client_id=1, app_class=WEB, snr_db=53.0)
        )
        assert box.current_matrix.counts[1] == 1  # web high
        box.update_flow_snr(decision.flow, 20.0)
        assert box.current_matrix.counts[0] == 1  # web low
        assert box.current_matrix.counts[1] == 0

    def test_poll_network_noop_in_bootstrap(self, exbox):
        exbox.handle_arrival(FlowRequest(client_id=1, app_class=WEB))
        result = exbox.poll_network()
        assert result.checked == 0
        assert exbox.current_matrix.total_flows == 1

    def test_poll_network_removes_revoked(self, estimator):
        box = ExBox.with_defaults(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(34)
        testbed = WiFiTestbed()
        _drive_bootstrap(box, testbed, rng, n=120)
        for flow in list(box.active_flows):
            box.handle_departure(flow)
        # Cram the cell during online phase (classifier may reject some).
        for i in range(9):
            box.handle_arrival(FlowRequest(client_id=i, app_class=STREAMING))
        before = len(box.active_flows)
        result = box.poll_network()
        assert len(box.active_flows) == before - len(result.revoked)

    def test_excr_view_available_online(self, estimator):
        box = ExBox.with_defaults(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )
        box.qoe_estimator = estimator
        rng = np.random.default_rng(35)
        _drive_bootstrap(box, WiFiTestbed(), rng, n=120)
        region = box.excr
        profile = region.boundary_profile(app_class_index=0, max_count=12)
        assert 0 <= profile <= 12


class _CapacityStub:
    """Deterministic online 'classifier': admit while the low-SNR-weighted
    occupancy of the post-admission matrix stays within ``cap``.

    Slot ``i`` of the matrix holds level ``i % n_levels``; level 0 (low
    SNR) counts double, as a slow station drags the whole cell. Using a
    stub instead of a trained SVM makes the revocation set exact, so the
    demotion *bookkeeping* can be asserted tightly.
    """

    phase = Phase.ONLINE
    is_online = True

    def __init__(self, cap=4, n_levels=2):
        self.cap = cap
        self.n_levels = n_levels

    def _weighted(self, x):
        counts = x[: 3 * self.n_levels]
        return sum(
            c * (2.0 if i % self.n_levels == 0 else 1.0)
            for i, c in enumerate(counts)
        )

    def margin(self, x):
        return float(self.cap - self._weighted(x))

    def classify(self, x):
        return 1 if self._weighted(x) <= self.cap else -1

    def classify_with_margin(self, x):
        return self.classify(x), self.margin(x)

    def instrument(self, obs):
        pass


class TestDemotionBookkeeping:
    """FlowRevalidator-driven demotion through ExBox.poll_network
    (Section 4.3 revocation into the 802.11e background category)."""

    def _online_box(self, obs=None):
        from repro.core.policies import AdmittancePolicy, PolicyAction
        from repro.wireless.channel import SnrBinner

        return ExBox(
            admittance=_CapacityStub(cap=4, n_levels=2),
            binner=SnrBinner.two_level(),
            policy=AdmittancePolicy(on_revoke=PolicyAction.LOW_PRIORITY),
            obs=obs,
        )

    def _admit_three_high_snr(self, box):
        decisions = [
            box.handle_arrival(FlowRequest(client_id=i, app_class=WEB, snr_db=53.0))
            for i in range(3)
        ]
        assert all(d.admitted for d in decisions)
        return decisions

    def test_revoked_flows_reenter_background(self):
        box = self._online_box()
        decisions = self._admit_three_high_snr(box)
        # Everyone walks away from the AP: weighted occupancy 3 -> 6 > 4.
        for d in decisions:
            box.update_flow_snr(d.flow, 23.0)
        result = box.poll_network()
        assert len(result.revoked) == 3
        background_ids = {f.flow_id for f in box.background_flows}
        assert {f.flow_id for f in result.revoked} == background_ids
        assert box.active_flows == []
        assert box.current_matrix.total_flows == 0

    def test_departure_of_demoted_flow(self):
        box = self._online_box()
        decisions = self._admit_three_high_snr(box)
        for d in decisions:
            box.update_flow_snr(d.flow, 23.0)
        (revoked, *rest) = box.poll_network().revoked
        matrix_before = box.current_matrix
        box.handle_departure(revoked)
        # Background flows live outside the managed matrix: departure
        # only drops the background entry.
        assert revoked.flow_id not in {f.flow_id for f in box.background_flows}
        assert len(box.background_flows) == len(rest)
        assert box.current_matrix == matrix_before
        with pytest.raises(KeyError):
            box.handle_departure(revoked)  # already gone entirely

    def test_demotion_metrics_and_events(self):
        from repro.obs import Obs

        obs = Obs.recording()
        box = self._online_box(obs=obs)
        decisions = self._admit_three_high_snr(box)
        assert obs.registry.counter("exbox.decisions.admitted").value == 3
        for d in decisions:
            box.update_flow_snr(d.flow, 23.0)
        box.poll_network()
        reg = obs.registry
        assert reg.counter("exbox.revalidation.polls").value == 1
        assert reg.counter("exbox.revalidation.checked").value == 3
        assert reg.counter("exbox.revalidation.revoked").value == 3
        assert reg.counter("exbox.departures.active").value == 3
        assert reg.gauge("exbox.flows.background").value == 3
        assert reg.gauge("exbox.matrix.occupancy").value == 0
        (event,) = obs.events.of_type("revalidation_revoked")
        assert event["demoted"] is True
        assert sorted(event["flows"]) == sorted(
            f.flow_id for f in box.background_flows
        )


class TestOneEvaluationPerDecision:
    """An online arrival costs exactly one single-row SVM evaluation;
    its verdict and its recorded margin come from that one value."""

    N_ARRIVALS = 150

    def _box(self, estimator, obs=None, **kwargs):
        box = ExBox.with_defaults(
            batch_size=10,
            min_bootstrap_samples=30,
            max_bootstrap_samples=60,
            cv_jobs=1,
            obs=obs,
            **kwargs,
        )
        box.qoe_estimator = estimator
        return box

    def _serve(self, box, monkeypatch, seed=36):
        """Seeded stream through bootstrap and online. Returns each
        decision with the row and batch evaluations inside its
        handle_arrival, and (online) what ``classify`` said about the
        same arrival before the outcome could retrain the model."""
        from repro.core.excr import encode_event
        from repro.ml.svm import SVC
        from repro.traffic.flows import APP_CLASSES

        calls = {"row": 0, "batch": 0}
        row, batch = SVC.decision_row, SVC.decision_function

        def counted_row(self, x):
            calls["row"] += 1
            return row(self, x)

        def counted_batch(self, X):
            calls["batch"] += 1
            return batch(self, X)

        monkeypatch.setattr(SVC, "decision_row", counted_row)
        monkeypatch.setattr(SVC, "decision_function", counted_batch)
        rng = np.random.default_rng(seed)
        testbed = WiFiTestbed()
        served = []
        for i in range(self.N_ARRIVALS):
            cls = APP_CLASSES[int(rng.integers(3))]
            before = dict(calls)
            decision = box.handle_arrival(FlowRequest(client_id=i, app_class=cls))
            rows = calls["row"] - before["row"]
            batches = calls["batch"] - before["batch"]
            verdict = None
            if decision.phase is Phase.ONLINE:
                verdict = box.admittance.classify(encode_event(decision.event))
            served.append((decision, rows, batches, verdict))
            specs = [(f.app_class, f.snr_db) for f in box.active_flows]
            box.report_outcome(decision, testbed.run_flows(specs, rng=rng))
            # Random departures keep the matrix moving across the boundary.
            keep = int(rng.integers(0, 6))
            while len(box.active_flows) > keep:
                box.handle_departure(box.active_flows[0])
        return served

    def test_one_row_evaluation_per_online_arrival(self, estimator, monkeypatch):
        served = self._serve(self._box(estimator), monkeypatch)
        online = [s for s in served if s[0].phase is Phase.ONLINE]
        bootstrap = [s for s in served if s[0].phase is Phase.BOOTSTRAP]
        assert len(online) >= 60 and bootstrap
        assert all((rows, batches) == (1, 0) for _, rows, batches, _ in online)
        assert all((rows, batches) == (0, 0) for _, rows, batches, _ in bootstrap)

    @pytest.mark.parametrize("guard", [0.5, -0.5])
    def test_verdict_is_margin_against_guard(self, estimator, monkeypatch, guard):
        box = self._box(estimator, guard_margin=guard)
        online = [
            (decision, verdict)
            for decision, _, _, verdict in self._serve(box, monkeypatch)
            if decision.phase is Phase.ONLINE
        ]
        # Some margins fall between 0 and the guard, where the guard
        # and the sign disagree.
        assert any(min(0.0, guard) <= d.margin < max(0.0, guard) for d, _ in online)
        for decision, verdict in online:
            assert decision.admitted == (decision.margin >= guard) == (verdict == 1)

    def test_margin_histogram_counts_online_arrivals(self, estimator, monkeypatch):
        from repro.core.admittance import MARGIN_BUCKETS
        from repro.obs import Obs

        obs = Obs.recording()
        served = self._serve(self._box(estimator, obs=obs), monkeypatch)
        n_online = sum(d.phase is Phase.ONLINE for d, _, _, _ in served)
        hist = obs.histogram("admittance.margin", buckets=MARGIN_BUCKETS)
        assert n_online > 0 and hist.count == n_online
