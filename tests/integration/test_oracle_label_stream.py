"""The exact water-filling level leaves the closed loop's label stream
unchanged.

Each seeded episode runs twice: once as shipped and once with the fluid
model's water-filling replaced by the bisection it superseded. Every
verdict and every observed truth label must be identical, and every
per-flow QoS the oracle measured must agree to 1e-11 relative.
"""

import pytest

import repro.wireless.fluid as fluid
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.testbed.lte_testbed import LTETestbed
from repro.testbed.wifi_testbed import WiFiTestbed
from tests.wireless.waterfill_reference import bisection_waterfill


class _RecordingScheme(ExBoxScheme):
    """ExBox adapter that keeps every verdict and observed label."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.verdicts = []
        self.truths = []

    def decide(self, event):
        verdict = super().decide(event)
        self.verdicts.append(verdict)
        return verdict

    def observe(self, event, truth):
        self.truths.append(truth)
        super().observe(event, truth)


def _episode(testbed_cls, seed):
    testbed = testbed_cls()
    runs = []
    run_flows = testbed.run_flows

    def recording_run_flows(*args, **kwargs):
        run = run_flows(*args, **kwargs)
        runs.append(run)
        return run

    testbed.run_flows = recording_run_flows
    scheme = _RecordingScheme(batch_size=15)
    run_closed_loop(scheme, testbed, seed=seed, duration_min=60, arrivals_per_min=3.0)
    qos = [
        (r.qos.throughput_bps, r.qos.delay_s, r.qos.loss_rate)
        for run in runs
        for r in run.records
    ]
    return scheme, qos


@pytest.mark.parametrize("testbed_cls", [WiFiTestbed, LTETestbed])
def test_label_stream_matches_bisection_oracle(testbed_cls, monkeypatch):
    shipped, shipped_qos = _episode(testbed_cls, seed=5)
    monkeypatch.setattr(fluid, "_waterfill", bisection_waterfill)
    reference, reference_qos = _episode(testbed_cls, seed=5)

    assert len(shipped.verdicts) > 100
    assert shipped.verdicts == reference.verdicts
    assert shipped.truths == reference.truths
    assert set(shipped.truths) == {-1, 1}  # both labels occur
    assert len(shipped_qos) == len(reference_qos)
    for got, want in zip(shipped_qos, reference_qos):
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-11 * abs(w)
