"""The three benchmark workloads, each split into units.

A unit is one independent seeded episode: its set-up (inputs, labelling,
IQX training, bootstrap) is timed apart from its timed part, which is
the closed loop of decisions and feedback. Every workload is a closed
loop with one caller: the next arrival is handed over only after the
previous decision and its feedback returned, and the simulated arrival
process does not depend on wall-clock time.

- ``closedloop-wifi``: :func:`repro.experiments.closedloop.run_closed_loop`
  with the ExBox scheme on the emulated WiFi testbed; the ground-truth
  oracle runs inside the timed loop. Its labels are the closed loop's
  own, measured as the library produces them.
- ``populous-replay``: the Figure 14 WiFi populous stream, labelled
  through IQX in set-up and replayed by
  :func:`repro.experiments.harness.evaluate_scheme` with batched
  decisions up to each retrain.
- ``middlebox-serve``: :class:`repro.core.exbox.ExBox` handling one flow
  at a time with ``repro.obs`` recording; the oracle is a table of one
  measured run per reachable traffic matrix, built in set-up.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.admittance import AdmittanceClassifier, Phase
from repro.core.exbox import ExBox
from repro.experiments.closedloop import run_closed_loop
from repro.experiments.datasets import (
    LabeledSample,
    build_simulation_dataset,
    build_testbed_dataset,
)
from repro.experiments.figures import trained_estimator
from repro.experiments.harness import ExBoxScheme, evaluate_scheme
from repro.obs.facade import NULL_OBS, Obs
from repro.testbed.controller import MatrixRun
from repro.testbed.wifi_testbed import WiFiTestbed
from repro.traffic.arrival import FlowEvent, random_matrix_sequence
from repro.traffic.flows import APP_CLASSES, FlowRequest
from repro.wireless.channel import HIGH_SNR_DB
from repro.wireless.fluid import FluidWiFiCell

clock = time.perf_counter

_CAL_X = np.random.default_rng(0).standard_normal((64, 8))


def calibrate(rounds: int = 1500) -> float:
    """Seconds taken by a fixed, benchmark-owned mix of interpreter work
    and small numpy kernels, like the library's hot paths but frozen."""
    acc = 0.0
    buffer: Dict[Tuple[int, int], int] = {}
    start = clock()
    for i in range(rounds):
        x = _CAL_X[i % 64]
        row = np.exp(-((_CAL_X - x) ** 2).sum(axis=1))
        acc += float(row @ row)
        key = (i % 7, i % 11)
        buffer[key] = buffer.get(key, 0) + 1
        acc += sum(j * 0.5 for j in range(30))
    return clock() - start


#: Median :func:`calibrate` time on the reference machine (a 2-vCPU x86
#: VM, Python 3.11, numpy with one BLAS thread).
CAL_REF_S = 0.018


class Calibrator:
    """How fast the machine is over time, from calibration bursts.

    Neighbours on a shared host move the speed of identical work by tens
    of percent within seconds. Bursts run before, between the phases of,
    and after every unit; a phase's slowness is the mean burst time
    within :attr:`WINDOW_S` seconds of it, relative to :data:`CAL_REF_S`.
    Timings divided by it are those of the reference machine.
    """

    WINDOW_S = 1.0

    def __init__(self) -> None:
        self.bursts: List[Tuple[float, float]] = []  # (midpoint, seconds)

    def burst(self) -> None:
        start = clock()
        seconds = calibrate()
        self.bursts.append((start + seconds / 2, seconds))

    def slowness(self, start: float, end: float) -> float:
        near = [
            s for t, s in self.bursts
            if start - self.WINDOW_S <= t <= end + self.WINDOW_S
        ]
        return sum(near) / len(near) / CAL_REF_S


@dataclass
class UnitResult:
    """What one unit did. Filled in as it runs, so a unit that raises
    still shows how far it got."""

    seed: int
    setup_s: float = 0.0
    run_s: float = 0.0
    attempted: int = 0  # arrivals handed to the admission call
    handled: int = 0  # arrivals whose feedback call returned
    decision_s: List[float] = field(default_factory=list)
    retrain_s: List[float] = field(default_factory=list)
    verdicts: List[int] = field(default_factory=list)
    truths: List[int] = field(default_factory=list)
    margins: List[float] = field(default_factory=list)
    ok_minutes: float = 0.0
    carried_minutes: float = 0.0
    retrains: int = 0
    expected_retrains: int = 0
    #: Clock readings bounding the set-up and the timed part.
    setup_at: Tuple[float, float] = (0.0, 0.0)
    run_at: Tuple[float, float] = (0.0, 0.0)
    calibrator: Optional[Calibrator] = field(default=None, repr=False)

    def setup_done(self, start: float) -> float:
        """Close the set-up timer; returns the timed part's start."""
        end = clock()
        self.setup_s = end - start
        self.setup_at = (start, end)
        if self.calibrator is not None:
            self.calibrator.burst()
        return clock()

    def run_done(self, start: float) -> None:
        end = clock()
        self.run_s = end - start
        self.run_at = (start, end)

    def fingerprint(self) -> Tuple[object, ...]:
        """Everything that must repeat exactly for one seed."""
        return (
            tuple(self.verdicts), tuple(self.truths), tuple(self.margins),
            self.ok_minutes, self.carried_minutes, self.retrains,
        )


class TimedScheme(ExBoxScheme):
    """ExBoxScheme that times each admission and feedback call."""

    def __init__(self, result: UnitResult, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.result = result

    def decide(self, event: FlowEvent) -> int:
        self.result.attempted += 1
        start = clock()
        verdict = super().decide(event)
        self.result.decision_s.append(clock() - start)
        self.result.verdicts.append(verdict)
        return verdict

    def decide_batch(self, events: Sequence[FlowEvent]) -> List[int]:
        self.result.attempted += len(events)
        start = clock()
        verdicts = super().decide_batch(events)
        self.result.decision_s.append(clock() - start)
        self.result.verdicts.extend(verdicts)
        return verdicts

    def observe(self, event: FlowEvent, truth: int) -> None:
        before = self.classifier.n_retrains
        start = clock()
        super().observe(event, truth)
        elapsed = clock() - start
        if self.classifier.n_retrains != before:
            self.result.retrain_s.append(elapsed)
        self.result.truths.append(int(truth))
        self.result.handled += 1


@dataclass(frozen=True)
class Workload:
    name: str
    unit: Callable[[UnitResult, bool], None]  # (result, obs recording)
    #: Whether repro.obs records in this workload's configuration.
    recording: bool
    #: Nominal wall seconds of one unit (set-up + timed part) on a
    #: 2-vCPU x86 VM; sizes the run from --seconds.
    unit_s: float
    #: Fewest units for every percentile to have 10 samples beyond it.
    min_units: int

    def units_for(self, seconds: float) -> int:
        return max(self.min_units, int(round(seconds / self.unit_s)))


def _obs(recording: bool) -> Obs:
    return Obs.recording() if recording else NULL_OBS


# ----------------------------------------------------------------------
# closedloop-wifi
# ----------------------------------------------------------------------
CLOSEDLOOP_MINUTES = 250
CLOSEDLOOP_RATE = 4.0
CLOSEDLOOP_BATCH = 20


def closedloop_unit(result: UnitResult, recording: bool) -> None:
    start = clock()
    testbed = WiFiTestbed()
    scheme = TimedScheme(result, batch_size=CLOSEDLOOP_BATCH, cv_jobs=1)
    # The bootstrap run_closed_loop would do itself, on the same stream,
    # moved ahead so that it counts as set-up.
    rng = np.random.default_rng(result.seed + 1)
    matrices = random_matrix_sequence(
        160, max_per_class=testbed.max_clients, rng=rng,
        max_total=testbed.max_clients,
    )
    scheme.bootstrap(build_testbed_dataset(testbed, matrices, rng))
    retrains_at_online = scheme.classifier.n_retrains

    start = result.setup_done(start)
    outcome = run_closed_loop(
        scheme, testbed, seed=result.seed, duration_min=CLOSEDLOOP_MINUTES,
        arrivals_per_min=CLOSEDLOOP_RATE, obs=_obs(recording),
    )
    result.run_done(start)
    result.ok_minutes = outcome.ok_flow_minutes
    result.carried_minutes = outcome.carried_flow_minutes
    result.retrains = scheme.classifier.n_retrains - retrains_at_online
    result.expected_retrains = result.handled // CLOSEDLOOP_BATCH


# ----------------------------------------------------------------------
# populous-replay
# ----------------------------------------------------------------------
POPULOUS_SAMPLES = 800
POPULOUS_BATCH = 10


def populous_samples(seed: int, n: int = POPULOUS_SAMPLES) -> List[LabeledSample]:
    """The Figure 14 WiFi stream: >20 flows per matrix, IQX labels."""
    estimator = trained_estimator(seed=seed)
    rng = np.random.default_rng(seed)
    matrices = []
    while len(matrices) < n:
        total = int(rng.integers(21, 41))
        splits = rng.multinomial(total, [1.0 / len(APP_CLASSES)] * len(APP_CLASSES))
        matrices.append(tuple(int(v) for v in splits))
    return build_simulation_dataset(
        FluidWiFiCell.ns3_80211n(), matrices, rng, estimator
    )


def populous_unit(result: UnitResult, recording: bool) -> None:
    start = clock()
    samples = populous_samples(result.seed)
    n_bootstrap = int(len(samples) * 0.1)
    scheme = TimedScheme(
        result,
        AdmittanceClassifier(
            batch_size=POPULOUS_BATCH,
            min_bootstrap_samples=min(50, max(n_bootstrap - 5, 6)),
            max_bootstrap_samples=n_bootstrap,
            max_buffer=1200,
            cv_jobs=1,
        ),
        obs=Obs.recording() if recording else None,
    )
    scheme.bootstrap(samples[:n_bootstrap])
    retrains_at_online = scheme.classifier.n_retrains

    start = result.setup_done(start)
    series = evaluate_scheme(
        samples, scheme, n_bootstrap=n_bootstrap, eval_every=len(samples)
    )
    result.run_done(start)
    # Carried flows: every flow of an admitted matrix, graded by its
    # client-side QoE.
    for sample, verdict in zip(samples[n_bootstrap:], series.y_pred):
        if verdict == 1:
            result.carried_minutes += len(sample.run.records)
            result.ok_minutes += sum(r.acceptable for r in sample.run.records)
    result.retrains = scheme.classifier.n_retrains - retrains_at_online
    result.expected_retrains = result.handled // POPULOUS_BATCH


# ----------------------------------------------------------------------
# middlebox-serve
# ----------------------------------------------------------------------
MIDDLEBOX_CLIENTS = 10
MIDDLEBOX_RATE = 4.0  # arrivals per simulated minute
MIDDLEBOX_HOLD = 6.0  # mean hold, minutes
MIDDLEBOX_BATCH = 20
MIDDLEBOX_OFFERED = 3000  # offered arrivals per unit


def reachable_matrices(max_flows: int = MIDDLEBOX_CLIENTS) -> List[Tuple[int, ...]]:
    """Every single-SNR-level matrix of at most ``max_flows`` flows."""
    k = len(APP_CLASSES)
    return [
        m for m in itertools.product(range(max_flows + 1), repeat=k)
        if sum(m) <= max_flows
    ]


def matrix_specs(matrix: Tuple[int, ...]) -> List[Tuple[str, float]]:
    return [
        (APP_CLASSES[c], HIGH_SNR_DB) for c, n in enumerate(matrix) for _ in range(n)
    ]


def table_rng(seed: int, matrix: Tuple[int, ...]) -> np.random.Generator:
    """The measurement stream of one table entry."""
    return np.random.default_rng([seed, *matrix])


def oracle_table(testbed: WiFiTestbed, seed: int) -> Dict[Tuple[int, ...], MatrixRun]:
    """One measured run per reachable matrix (286 for 10 clients)."""
    return {
        m: testbed.run_flows(matrix_specs(m), rng=table_rng(seed, m))
        for m in reachable_matrices(testbed.max_clients)
    }


def middlebox_stream(seed: int, n: int = MIDDLEBOX_OFFERED) -> np.ndarray:
    """Offered arrivals: rows of (arrival minute, class index, hold)."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / MIDDLEBOX_RATE, n))
    classes = rng.integers(len(APP_CLASSES), size=n)
    holds = rng.exponential(MIDDLEBOX_HOLD, n)
    return np.column_stack([times, classes, holds])


def middlebox_unit(result: UnitResult, recording: bool) -> None:
    """Arrivals while every client is busy are not offered (a client has
    one flow at a time), so the truth matrix always fits the table."""
    start = clock()
    testbed = WiFiTestbed(n_devices=MIDDLEBOX_CLIENTS)
    table = oracle_table(testbed, result.seed)
    exbox = ExBox.with_defaults(
        batch_size=MIDDLEBOX_BATCH, obs=_obs(recording), cv_jobs=1
    )
    exbox.train_qoe_estimator(
        rng=np.random.default_rng(result.seed), runs_per_point=4
    )
    stream = middlebox_stream(result.seed)

    departures: List[Tuple[float, int, object]] = []
    timed = False
    retrains_at_online = 0
    last = 0.0
    for minute, cls_idx, hold in stream:
        while departures and departures[0][0] <= minute:
            depart, _, flow = heapq.heappop(departures)
            if timed:
                _carry(result, table, exbox, depart - last)
            last = depart
            exbox.handle_departure(flow)  # type: ignore[arg-type]
        if timed:
            _carry(result, table, exbox, minute - last)
        last = minute
        if len(departures) >= MIDDLEBOX_CLIENTS:
            continue
        if not timed and exbox.phase is Phase.ONLINE:
            timed = True
            retrains_at_online = exbox.admittance.n_retrains
            start = result.setup_done(start)
        request = FlowRequest(
            client_id=len(departures), app_class=APP_CLASSES[int(cls_idx)],
            snr_db=HIGH_SNR_DB,
        )
        if not timed:
            decision = exbox.handle_arrival(request)
            exbox.report_outcome(decision, table[decision.event.matrix_after])
        else:
            result.attempted += 1
            t0 = clock()
            decision = exbox.handle_arrival(request)
            t1 = clock()
            truth = table[decision.event.matrix_after]
            before = exbox.admittance.n_retrains
            exbox.report_outcome(decision, truth)
            t2 = clock()
            result.decision_s.append(t1 - t0)
            if exbox.admittance.n_retrains != before:
                result.retrain_s.append(t2 - t1)
            result.handled += 1
            result.verdicts.append(1 if decision.admitted else -1)
            result.truths.append(truth.label)
            result.margins.append(float(decision.margin))  # type: ignore[arg-type]
        if decision.admitted:
            heapq.heappush(
                departures, (minute + hold, decision.flow.flow_id, decision.flow)
            )
    if timed:
        result.run_done(start)
    result.retrains = exbox.admittance.n_retrains - retrains_at_online
    result.expected_retrains = result.handled // MIDDLEBOX_BATCH


def _carry(
    result: UnitResult,
    table: Dict[Tuple[int, ...], MatrixRun],
    exbox: ExBox,
    minutes: float,
) -> None:
    """Accumulate carried and QoE-OK flow-minutes of the current matrix."""
    if minutes <= 0:
        return
    records = table[exbox.current_matrix.counts].records
    result.carried_minutes += minutes * len(records)
    result.ok_minutes += minutes * sum(r.acceptable for r in records)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "closedloop-wifi", closedloop_unit, recording=False, unit_s=0.95, min_units=3
        ),
        Workload(
            "populous-replay", populous_unit, recording=False, unit_s=2.1, min_units=2
        ),
        Workload(
            "middlebox-serve", middlebox_unit, recording=True, unit_s=1.05, min_units=2
        ),
    )
}


def run_unit(
    workload: Workload,
    seed: int,
    recording: Optional[bool] = None,
    calibrator: Optional[Calibrator] = None,
) -> Tuple[UnitResult, Optional[BaseException]]:
    """Run one unit; an exception is returned, not raised, so that the
    arrivals it left unhandled count as failed. With a ``calibrator``,
    bursts run before the unit, between its phases and after it."""
    result = UnitResult(seed=seed, calibrator=calibrator)
    if calibrator is not None:
        calibrator.burst()
    try:
        workload.unit(result, workload.recording if recording is None else recording)
    except Exception as exc:  # the benchmark reports it as a failed unit
        return result, exc
    if calibrator is not None:
        calibrator.burst()
    return result, None
