"""Self-tests of the benchmark's instrument and inputs."""

import json
import os

import numpy as np
import pytest

from bench import E2E_METRICS, LAYER_METRICS, WORKLOADS, unit_seeds, warmup_seed
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.harness import ExBoxScheme
from repro.testbed.wifi_testbed import WiFiTestbed
from spans import Span, SpanRecorder, instrument, self_times
from stats import UnsupportedPercentile, beyond, confusion, percentile, quality
from workloads import (
    matrix_specs,
    middlebox_stream,
    oracle_table,
    populous_samples,
    reachable_matrices,
    table_rng,
)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_subtracted_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),  # overlaps a on [3, 5]
        Span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    # Children cover [1, 7] and [9, 10] of the root: 7 s.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_recorder_nests_and_counts():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer"):
        with recorder.span("inner"):
            recorder.count("work", 3)
        recorder.count("work")
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent is None
    assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)
    assert recorder.self_by_name() == {"outer": 2.0, "inner": 1.0}
    assert recorder.counts == {"work": 4}


def test_instrument_wraps_and_restores():
    class Layer:
        def work(self, items):
            return len(items)

    original = Layer.__dict__["work"]
    recorder = SpanRecorder()
    targets = [(Layer, "work", "layer", lambda s, a, k: {"layer.rows": len(a[0])})]
    with instrument(recorder, targets):
        assert Layer().work([1, 2, 3]) == 3
    assert Layer.__dict__["work"] is original
    assert [s.name for s in recorder.spans] == ["layer"]
    assert recorder.counts == {"layer.rows": 3}


def test_chrome_trace_file(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("a"):
        with recorder.span("b"):
            pass
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["a", "b"]
    assert events[1]["args"]["parent"] == 0 and events[0]["ph"] == "X"


# ----------------------------------------------------------------------
# Percentile support
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n,q,ok", [(1000, 99, True), (999, 99, False), (100, 90, True),
               (99, 90, False), (20, 50, True), (19, 50, False)],
)
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    samples = list(np.linspace(0.0, 1.0, n))
    if ok:
        value, count = percentile(samples, q)
        assert count == n and beyond(n, q) >= 10
        assert value == pytest.approx(np.percentile(samples, q))
    else:
        with pytest.raises(UnsupportedPercentile):
            percentile(samples, q)


def test_quality_scores():
    truths = [1, 1, -1, -1, 1]
    verdicts = [1, -1, 1, -1, 1]
    assert confusion(truths, verdicts) == (2, 1, 1, 1)
    assert quality(2, 1, 1, 1) == pytest.approx((2 / 3, 2 / 3, 3 / 5))


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------
def test_unit_seeds_are_stable_and_distinct():
    assert unit_seeds(3, 5) == unit_seeds(3, 5)
    assert unit_seeds(3, 5) != unit_seeds(4, 5)
    assert len(set(unit_seeds(3, 50))) == 50
    assert warmup_seed(3) not in unit_seeds(3, 50)


def test_middlebox_stream_is_a_function_of_the_seed():
    assert np.array_equal(middlebox_stream(5, 200), middlebox_stream(5, 200))
    assert not np.array_equal(middlebox_stream(5, 200), middlebox_stream(6, 200))


def test_populous_samples_are_a_function_of_the_seed():
    a, b = populous_samples(5, n=40), populous_samples(5, n=40)
    assert [s.event for s in a] == [s.event for s in b]
    assert [s.y for s in a] == [s.y for s in b]
    assert all(sum(s.event.matrix_before) >= 20 for s in a)


class _Recording(ExBoxScheme):
    def __init__(self):
        super().__init__(batch_size=20, cv_jobs=1)
        self.events = []

    def decide(self, event):
        self.events.append(event)
        return super().decide(event)


def test_closedloop_arrivals_are_a_function_of_the_seed():
    def arrivals(seed):
        scheme = _Recording()
        run_closed_loop(scheme, WiFiTestbed(), seed=seed, duration_min=20,
                        arrivals_per_min=4.0)
        return scheme.events

    first = arrivals(11)
    assert len(first) > 40
    assert arrivals(11) == first


# ----------------------------------------------------------------------
# The middlebox-serve oracle table
# ----------------------------------------------------------------------
def test_oracle_table_matches_the_testbed():
    testbed = WiFiTestbed(n_devices=10)
    table = oracle_table(testbed, seed=9)
    assert len(table) == len(reachable_matrices(10)) == 286
    rng = np.random.default_rng(0)
    keys = list(table)
    for i in rng.choice(len(keys), size=25, replace=False):
        matrix = keys[int(i)]
        run = WiFiTestbed(n_devices=10).run_flows(
            matrix_specs(matrix), rng=table_rng(9, matrix)
        )
        assert run == table[matrix]
        assert run.counts(1) == matrix


# ----------------------------------------------------------------------
# The declared metrics are the printed ones
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_printed_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert tuple(m["name"] for m in declared["end_to_end"]) == E2E_METRICS
    assert tuple(m["name"] for m in declared["per_layer"]) == LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
