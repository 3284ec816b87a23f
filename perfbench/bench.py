"""Measured and traced runs of one workload, their checks and metrics."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.admittance import AdmittanceClassifier
from repro.core.exbox import ExBox
from repro.experiments.harness import ExBoxScheme
from repro.ml.online import BatchOnlineSVM
from repro.testbed.base import EmulatedTestbed
from repro.wireless.fluid import FluidWiFiCell

from spans import SpanRecorder, Target, instrument
from stats import UnsupportedPercentile, beyond, confusion, percentile, quality
from workloads import WORKLOADS, Calibrator, UnitResult, Workload, run_unit

__all__ = ["E2E_METRICS", "LAYER_METRICS", "WORKLOADS", "run", "unit_seeds",
           "warmup_seed"]

Metrics = Dict[str, Tuple[float, str]]

#: What ``--trace 0`` and ``--trace 1`` print, in order (BENCHMARK.json
#: declares the same names).
E2E_METRICS = (
    "arrivals_per_s", "decision_us.p50", "decision_us.p90", "retrain_ms.p50",
    "retrain_ms.p90", "precision", "recall", "accuracy", "qoe_ok_frac",
    "setup_s", "peak_rss_mb",
)
LAYERS = ("oracle", "decide", "retrain", "bootstrap", "outcome")
WORK_COUNTS = (
    "oracle.calls", "oracle.flows", "decide.calls", "decide.rows",
    "retrain.calls", "retrain.rows", "retrain.rows_sq", "bootstrap.samples",
    "outcome.calls",
)
LAYER_METRICS = (
    *WORK_COUNTS,
    *(f"{layer}.{kind}" for layer in (*LAYERS, "harness") for kind in ("self_s", "share")),
    "trace.wall_s", "trace.overhead_frac", "obs.overhead_frac",
)


def unit_seeds(seed: int, n: int) -> List[int]:
    """The measured units' seeds, derived from the run's ``--seed``."""
    return [_derive(seed, 0, i) for i in range(n)]


def warmup_seed(seed: int) -> int:
    return _derive(seed, 1, 0)


def _derive(seed: int, stream: int, index: int) -> int:
    entropy = [abs(int(seed)), stream, index, 1 if seed < 0 else 0]
    state = np.random.SeedSequence(entropy).generate_state(1)[0]
    return int(state) % (2**31 - 2**20)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checks:
    def __init__(self) -> None:
        self.failures: List[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


def _check_units(checks: Checks, units: Sequence[UnitResult], label: str) -> None:
    for u in units:
        where = f"{label} unit seed {u.seed}"
        checks.expect(u.handled > 0, f"{where}: no arrival handled")
        checks.expect(
            u.attempted == u.handled,
            f"{where}: {u.attempted} attempted, {u.handled} handled",
        )
        checks.expect(
            all(v in (1, -1) for v in u.verdicts), f"{where}: verdict outside {{+1, -1}}"
        )
        checks.expect(
            len(u.verdicts) == len(u.truths) == u.handled,
            f"{where}: {len(u.verdicts)} verdicts, {len(u.truths)} truths",
        )
        checks.expect(
            u.retrains == u.expected_retrains == len(u.retrain_s),
            f"{where}: {u.retrains} retrains, {u.expected_retrains} batch "
            f"boundaries, {len(u.retrain_s)} timed",
        )


def _failed_count(results: Sequence[Tuple[UnitResult, Optional[BaseException]]]) -> int:
    failed = 0
    for unit, exc in results:
        if exc is not None:
            traceback.print_exception(type(exc), exc, exc.__traceback__)
            failed += max(unit.attempted - unit.handled, 1)
    return failed


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def _quality(units: Sequence[UnitResult]) -> Metrics:
    truths = [t for u in units for t in u.truths]
    verdicts = [v for u in units for v in u.verdicts]
    precision, recall, accuracy = quality(*confusion(truths, verdicts))
    carried = sum(u.carried_minutes for u in units)
    ok = sum(u.ok_minutes for u in units)
    return {
        "precision": (precision, "ratio"),
        "recall": (recall, "ratio"),
        "accuracy": (accuracy, "ratio"),
        "qoe_ok_frac": (ok / carried if carried else float("nan"), "ratio"),
    }


def end_to_end(
    units: Sequence[UnitResult],
    imports: Sequence[Tuple[float, float, float]],
    calibrator: Optional[Calibrator],
) -> Tuple[Metrics, List[str]]:
    """Every end-to-end metric, plus a line per percentile's support.

    With a ``calibrator`` every time is scaled to the reference machine's
    speed; without one the times are the wall-clock ones.
    """
    slow = [
        (calibrator.slowness(*u.setup_at), calibrator.slowness(*u.run_at))
        if calibrator else (1.0, 1.0)
        for u in units
    ]
    decisions = [d / run for u, (_, run) in zip(units, slow) for d in u.decision_s]
    retrains = [r / run for u, (_, run) in zip(units, slow) for r in u.retrain_s]
    notes = []
    # The median unit's rate: a unit slowed by a noisy neighbour moves
    # the median less than it moves the pooled mean.
    metrics: Metrics = {
        "arrivals_per_s": (statistics.median(
            u.handled / (u.run_s / run) for u, (_, run) in zip(units, slow)
        ), "1/s"),
    }
    for name, samples, scale, unit, qs in (
        ("decision_us", decisions, 1e6, "us", (50, 90)),
        ("retrain_ms", retrains, 1e3, "ms", (50, 90)),
    ):
        for q in qs:
            value, n = percentile(samples, q)
            metrics[f"{name}.p{q}"] = (value * scale, unit)
            notes.append(f"{name}.p{q}: {n} samples, {beyond(n, q)} beyond")
    metrics.update(_quality(units))
    # Set-up: the median import of a fresh process, plus the median unit
    # set-up (input generation, labelling, IQX training, bootstrap).
    metrics["setup_s"] = (
        statistics.median(
            seconds / (calibrator.slowness(start, end) if calibrator else 1.0)
            for seconds, start, end in imports
        )
        + statistics.median(u.setup_s / setup for u, (setup, _) in zip(units, slow)),
        "s",
    )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return metrics, notes


HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_PROBES = 5
_PROBE = (
    "import time; start = time.perf_counter(); import bench; "
    "print(time.perf_counter() - start)"
)


def import_probes(calibrator: Calibrator) -> List[Tuple[float, float, float]]:
    """Import time of the library and the benchmark in fresh interpreters,
    as (seconds, start, end) with the parent's clock around each probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(HERE), "src"), HERE])
    probes = []
    for _ in range(IMPORT_PROBES):
        calibrator.burst()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, cwd=HERE,
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append((float(proc.stdout.split()[-1]), start, time.perf_counter()))
    calibrator.burst()
    return probes


# ----------------------------------------------------------------------
# Per-layer tracing
# ----------------------------------------------------------------------
def _rows(self: BatchOnlineSVM, args: tuple, kwargs: dict) -> Dict[str, int]:
    n = len(self)
    return {"retrain.calls": 1, "retrain.rows": n, "retrain.rows_sq": n * n}


def _counter(**fixed: int):  # type: ignore[no-untyped-def]
    return lambda self, args, kwargs: dict(fixed)


def _sized(calls: str, size: str):  # type: ignore[no-untyped-def]
    """One call, plus the length of its first argument (flows, rows)."""
    return lambda self, args, kwargs: {calls: 1, size: len(args[0])}


#: Layer entry points, wrapped from the outside in the traced run.
LAYER_TARGETS: List[Target] = [
    (EmulatedTestbed, "run_flows", "oracle", _sized("oracle.calls", "oracle.flows")),
    (FluidWiFiCell, "allocate", "oracle", _sized("oracle.calls", "oracle.flows")),
    (ExBoxScheme, "decide", "decide", _counter(**{"decide.calls": 1, "decide.rows": 1})),
    (ExBoxScheme, "decide_batch", "decide", _sized("decide.calls", "decide.rows")),
    (ExBox, "handle_arrival", "decide", _counter(**{"decide.calls": 1, "decide.rows": 1})),
    (BatchOnlineSVM, "retrain", "retrain", _rows),
    (AdmittanceClassifier, "observe_bootstrap", "bootstrap",
     _counter(**{"bootstrap.samples": 1})),
    (ExBoxScheme, "observe", "outcome", _counter(**{"outcome.calls": 1})),
    (ExBox, "report_outcome", "outcome", _counter(**{"outcome.calls": 1})),
]


def traced_run(
    workload: Workload, seeds: Sequence[int], checks: Checks, out_path: str
) -> Tuple[Metrics, int, int]:
    """Per unit: untraced, traced and with the other obs setting, in turn.

    Returns the per-layer metrics and the attempted/failed counts.
    """
    recorder = SpanRecorder()
    base_s = traced_s = rec_s = null_s = 0.0
    attempted = failed = 0
    for seed in seeds:
        base = run_unit(workload, seed)
        with instrument(recorder, LAYER_TARGETS):
            with recorder.span("harness"):
                traced = run_unit(workload, seed)
        paired = run_unit(workload, seed, recording=not workload.recording)
        trio = (base, traced, paired)
        failed += _failed_count(trio)
        attempted += sum(u.attempted for u, _ in trio)
        _check_units(checks, [u for u, _ in trio], "traced-run")
        checks.expect(
            base[0].fingerprint() == traced[0].fingerprint(),
            f"seed {seed}: traced and untraced runs decided differently",
        )
        checks.expect(
            base[0].fingerprint() == paired[0].fingerprint(),
            f"seed {seed}: decisions differ with obs recording and NULL_OBS",
        )
        base_s += base[0].run_s
        traced_s += traced[0].run_s
        recorded, null = (base, paired) if workload.recording else (paired, base)
        rec_s += recorded[0].run_s
        null_s += null[0].run_s

    own = recorder.self_by_name()
    wall = sum(s.duration for s in recorder.spans if s.name == "harness")
    metrics: Metrics = {
        name: (float(recorder.counts.get(name, 0)), "count") for name in WORK_COUNTS
    }
    for layer in (*LAYERS, "harness"):
        metrics[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
        metrics[f"{layer}.share"] = (own.get(layer, 0.0) / wall, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1.0, "ratio")
    metrics["obs.overhead_frac"] = (rec_s / null_s - 1.0, "ratio")
    accounted = sum(own.get(n, 0.0) for n in (*LAYERS, "harness"))
    checks.expect(
        abs(accounted - wall) <= 1e-6 * max(wall, 1.0),
        f"layer self times sum to {accounted:.6f} s, traced wall is {wall:.6f} s",
    )
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    recorder.write_chrome_trace(out_path)
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
) -> int:
    """Run one workload, print its report and result line; exit status."""
    calibrator = Calibrator()
    n_units = workload.units_for(seconds)
    seeds = unit_seeds(seed, n_units)
    warm = warmup_seed(seed)
    checks = Checks()
    checks.expect(warm not in seeds, "warm-up seed collides with a measured seed")

    # Uncounted warm-up on a seed outside the measured list; it is run
    # again at the end to check that one seed repeats exactly.
    warm_first, warm_exc = run_unit(workload, warm, calibrator=calibrator)
    attempted = failed = 0
    if trace:
        # A third of the units, each run three ways.
        n_traced = max(1, -(-n_units // 3))
        out_path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json")
        metrics, attempted, failed = traced_run(
            workload, seeds[:n_traced], checks, out_path
        )
        print(f"{workload.name}: traced {n_traced} units; chrome trace {out_path}")
        notes: List[str] = []
    else:
        results = [run_unit(workload, s, calibrator=calibrator) for s in seeds]
        failed = _failed_count(results)
        attempted = sum(u.attempted for u, _ in results)
        _check_units(checks, [u for u, _ in results], "measured")
        units = [u for u, exc in results if exc is None and u.handled]
        imports = import_probes(calibrator)
        if not units:
            print(f"{workload.name}: no unit completed", file=sys.stderr)
            return 1
        try:
            metrics, notes = end_to_end(units, imports, calibrator)
            wall, _ = end_to_end(units, imports, None)
        except UnsupportedPercentile as exc:
            print(f"{workload.name}: {exc}", file=sys.stderr)
            return 1
        slowness = statistics.median(calibrator.slowness(*u.run_at) for u in units)
        print(f"{workload.name}: {n_units} units, "
              f"{sum(u.run_s for u in units):.2f} s timed, "
              f"{sum(u.setup_s for u in units):.2f} s set-up; machine at "
              f"{1 / slowness:.3f}x reference speed (median unit)")
        for name in ("arrivals_per_s", "decision_us.p50", "decision_us.p90",
                     "retrain_ms.p50", "retrain_ms.p90", "setup_s"):
            notes.append(f"{name} unscaled wall-clock: {wall[name][0]:.6g} {wall[name][1]}")
    warm_again, warm_exc2 = run_unit(workload, warm, calibrator=calibrator)
    failed += _failed_count([(warm_first, warm_exc), (warm_again, warm_exc2)])
    checks.expect(
        warm_first.fingerprint() == warm_again.fingerprint(),
        f"seed {warm}: two runs gave different decisions or quality",
    )
    _check_units(checks, [warm_first, warm_again], "warm-up")

    expected = LAYER_METRICS if trace else E2E_METRICS
    checks.expect(
        tuple(metrics) == expected, f"metrics {list(metrics)} != {list(expected)}"
    )
    for name, (value, unit) in metrics.items():
        checks.expect(math.isfinite(value), f"{name} is {value}")

    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:>14.6g} {unit}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"  checks: {checks.passed} passed, {len(checks.failures)} failed")
    correct = not checks.failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0 if correct else 1
