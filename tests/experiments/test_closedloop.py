"""Tests for the closed-loop outcome evaluation."""

import pytest

from repro.core.baselines import AdmissionScheme, MaxClientAdmission
from repro.experiments.closedloop import (
    ClosedLoopResult,
    compare_closed_loop,
    run_closed_loop,
)
from repro.testbed.wifi_testbed import WiFiTestbed


class _RejectAll(AdmissionScheme):
    name = "RejectAll"

    def decide(self, event):
        return -1


class TestClosedLoop:
    def test_reject_all_carries_nothing(self):
        result = run_closed_loop(
            _RejectAll(), WiFiTestbed(), seed=1, duration_min=30
        )
        assert result.admitted == 0
        assert result.carried_flow_minutes == pytest.approx(0.0)
        assert result.qoe_ok_fraction == pytest.approx(1.0)  # vacuously perfect QoE

    def test_maxclient_carries_load(self):
        result = run_closed_loop(
            MaxClientAdmission(10), WiFiTestbed(), seed=2, duration_min=40
        )
        assert result.admitted > 0
        assert result.carried_flow_minutes > 0
        assert 0.0 <= result.qoe_ok_fraction <= 1.0

    def test_flow_minute_accounting(self):
        result = run_closed_loop(
            MaxClientAdmission(5), WiFiTestbed(), seed=3, duration_min=40
        )
        assert result.ok_flow_minutes <= result.carried_flow_minutes
        assert result.violation_minutes == pytest.approx(
            result.carried_flow_minutes - result.ok_flow_minutes
        )

    def test_same_seed_same_arrivals(self):
        a = run_closed_loop(MaxClientAdmission(10), WiFiTestbed(), seed=4, duration_min=30)
        b = run_closed_loop(MaxClientAdmission(10), WiFiTestbed(), seed=4, duration_min=30)
        assert a.admitted == b.admitted
        assert a.carried_flow_minutes == b.carried_flow_minutes

    def test_compare_runs_all_schemes(self):
        results = compare_closed_loop(
            [MaxClientAdmission(10), _RejectAll()],
            WiFiTestbed,
            seed=5,
            duration_min=20,
        )
        assert set(results) == {"MaxClient", "RejectAll"}
        # Same arrival sequence: total attempts must match.
        attempts = {n: r.admitted + r.rejected for n, r in results.items()}
        assert len(set(attempts.values())) == 1

    def test_as_row_fields(self):
        result = ClosedLoopResult(scheme="x", duration_min=10)
        row = result.as_row()
        assert set(row) == {
            "admitted", "rejected", "carried flow-min",
            "QoE-OK fraction", "violation flow-min",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            run_closed_loop(_RejectAll(), WiFiTestbed(), seed=0, duration_min=0)
        with pytest.raises(ValueError):
            run_closed_loop(
                _RejectAll(), WiFiTestbed(), seed=0, arrivals_per_min=0.0
            )


class TestOneEvaluationPerClosedLoopDecision:
    """Under a recording obs, an online closed-loop decision costs one
    single-row SVM evaluation, and its record carries that margin."""

    def _scheme(self):
        from repro.experiments.harness import ExBoxScheme

        return ExBoxScheme(
            batch_size=10, min_bootstrap_samples=30, max_bootstrap_samples=60
        )

    def _episode(self, obs, monkeypatch):
        """Run a seeded episode; returns the scheme, the verdicts and the
        row evaluations between each decide and the following observe."""
        from repro.experiments.harness import ExBoxScheme
        from repro.ml.svm import SVC

        rows = {"n": 0}
        per_decision, verdicts = [], []
        decision_row, decide, observe = (
            SVC.decision_row, ExBoxScheme.decide, ExBoxScheme.observe
        )

        def counted_row(self, x):
            rows["n"] += 1
            return decision_row(self, x)

        def marked_decide(self, event):
            rows["n"] = 0
            verdict = decide(self, event)
            verdicts.append(verdict)
            return verdict

        def marked_observe(self, event, truth):
            per_decision.append(rows["n"])
            return observe(self, event, truth)

        monkeypatch.setattr(SVC, "decision_row", counted_row)
        monkeypatch.setattr(ExBoxScheme, "decide", marked_decide)
        monkeypatch.setattr(ExBoxScheme, "observe", marked_observe)
        run_closed_loop(
            self._scheme(), WiFiTestbed(), seed=7, duration_min=30,
            arrivals_per_min=2.0, obs=obs,
        )
        monkeypatch.undo()
        return per_decision, verdicts

    def test_one_row_evaluation_per_decision(self, monkeypatch):
        from repro.obs import NULL_OBS, Obs

        obs = Obs.recording()
        per_decision, verdicts = self._episode(obs, monkeypatch)
        assert len(per_decision) == len(verdicts) > 40
        assert set(per_decision) == {1}
        records = obs.events.of_type("admission_decision")
        assert len(records) == len(verdicts)
        assert all(r["margin"] is not None for r in records)
        assert all((r["margin"] >= 0.0) == (v == 1) for r, v in zip(records, verdicts))
        _, dark_verdicts = self._episode(NULL_OBS, monkeypatch)
        assert dark_verdicts == verdicts
