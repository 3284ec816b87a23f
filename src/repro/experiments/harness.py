"""Online evaluation harness (Sections 5.3 and 6).

Feeds a chronological stream of labelled samples to an admission scheme
and tracks the paper's three metrics as a function of the number of
samples fed online, evaluated on cumulative windows — the exact quantity
Figures 7, 8, 10, 11, 13 and 14 plot.

ExBox is adapted through :class:`ExBoxScheme`, which runs the bootstrap
on the first samples (admitting everything, as the paper's Figure 4
prescribes) and then decides/updates online; the baselines implement
:class:`~repro.core.baselines.AdmissionScheme` directly and simply have
no learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.admittance import AdmittanceClassifier
from repro.core.baselines import AdmissionScheme
from repro.core.excr import encode_event
from repro.experiments.datasets import LabeledSample
from repro.ml.metrics import accuracy_score, precision_score, recall_score
from repro.obs.facade import Obs
from repro.traffic.arrival import FlowEvent
from repro.traffic.flows import APP_CLASSES

__all__ = ["EvaluationSeries", "ExBoxScheme", "evaluate_scheme", "run_comparison"]


class ExBoxScheme(AdmissionScheme):
    """Adapter exposing the Admittance Classifier as an AdmissionScheme."""

    name = "ExBox"

    def __init__(
        self,
        classifier: Optional[AdmittanceClassifier] = None,
        obs: Optional[Obs] = None,
        **kwargs: Any,
    ) -> None:
        self.classifier = classifier or AdmittanceClassifier(obs=obs, **kwargs)
        if obs is not None:
            self.classifier.instrument(obs)
        #: Margin of the latest :meth:`decide`, for the decision record.
        self.last_margin: Optional[float] = None

    @property
    def is_online(self) -> bool:
        return self.classifier.is_online

    def bootstrap(self, samples: Sequence[LabeledSample]) -> None:
        """Feed bootstrap samples; exits early if CV passes sooner."""
        for sample in samples:
            if self.classifier.is_online:
                break
            self.classifier.observe_bootstrap(sample.x, sample.y)
        if not self.classifier.is_online:
            self.classifier.force_online()

    def decide(self, event: FlowEvent) -> int:
        # One SVM evaluation gives the verdict and the recorded margin.
        verdict, self.last_margin = self.classifier.classify_with_margin(
            encode_event(event)
        )
        return verdict

    def decide_batch(self, events: Sequence[FlowEvent]) -> List[int]:
        """Vectorized decisions: one kernel evaluation for the batch."""
        if not events:
            return []
        X = np.vstack([encode_event(event) for event in events])
        return [int(v) for v in self.classifier.classify_batch(X)]

    def decision_horizon(self) -> Optional[int]:
        """Decisions are stable until the next batch-boundary retrain."""
        return max(self.classifier.samples_until_retrain, 1)

    def observe(self, event: FlowEvent, truth: int) -> None:
        self.classifier.observe_online(encode_event(event), truth)


@dataclass
class EvaluationSeries:
    """Metric trajectories over the online phase.

    ``sample_counts[i]`` is the number of samples fed online at
    checkpoint ``i``. Metrics are cumulative over everything fed so far
    by default; with ``windowed`` they cover only the samples since the
    previous checkpoint (used by the adaptation experiment, where
    cumulative averages would hide the recovery).
    """

    scheme: str
    windowed: bool = False
    sample_counts: List[int] = field(default_factory=list)
    precision: List[float] = field(default_factory=list)
    recall: List[float] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    y_true: List[int] = field(default_factory=list)
    y_pred: List[int] = field(default_factory=list)
    app_classes: List[str] = field(default_factory=list)
    _window_start: int = 0

    def _checkpoint(self) -> None:
        start = self._window_start if self.windowed else 0
        y_true, y_pred = self.y_true[start:], self.y_pred[start:]
        self.sample_counts.append(len(self.y_true))
        self.precision.append(precision_score(y_true, y_pred))
        self.recall.append(recall_score(y_true, y_pred))
        self.accuracy.append(accuracy_score(y_true, y_pred))
        self._window_start = len(self.y_true)

    @property
    def final_precision(self) -> float:
        return self.precision[-1] if self.precision else float("nan")

    @property
    def final_recall(self) -> float:
        return self.recall[-1] if self.recall else float("nan")

    @property
    def final_accuracy(self) -> float:
        return self.accuracy[-1] if self.accuracy else float("nan")

    def per_class_accuracy(self) -> Dict[str, float]:
        """Fraction of correct decisions split by arriving-flow class
        (the paper's Figure 9 metric)."""
        out: Dict[str, float] = {}
        for cls in APP_CLASSES:
            pairs = [
                (t, p)
                for t, p, c in zip(self.y_true, self.y_pred, self.app_classes)
                if c == cls
            ]
            if pairs:
                truths, preds = zip(*pairs)
                out[cls] = accuracy_score(list(truths), list(preds))
        return out

    def tail_mean(self, metric: str, fraction: float = 0.5) -> float:
        """Mean of a metric over the last ``fraction`` of checkpoints."""
        series = getattr(self, metric)
        if not series:
            return float("nan")
        start = int(len(series) * (1.0 - fraction))
        return float(np.mean(series[start:]))


def evaluate_scheme(
    samples: Sequence[LabeledSample],
    scheme: AdmissionScheme,
    n_bootstrap: int = 0,
    eval_every: int = 10,
    windowed: bool = False,
) -> EvaluationSeries:
    """Run one scheme over a labelled stream.

    The first ``n_bootstrap`` samples never count toward metrics: for
    ExBox they feed the bootstrap phase; baselines simply skip them (they
    have nothing to learn). Each subsequent sample is decided first, then
    revealed to the scheme.

    Decisions are made in chunks of :meth:`AdmissionScheme.decide_batch`
    bounded by the scheme's :meth:`~AdmissionScheme.decision_horizon`, so
    a chunk never straddles a model update — for ExBox each chunk runs
    exactly up to the next batch-boundary retrain, where the per-sample
    loop would have used the same fixed model anyway. Feedback is still
    delivered strictly in arrival order.
    """
    if n_bootstrap >= len(samples):
        raise ValueError("bootstrap would consume the whole stream")
    if isinstance(scheme, ExBoxScheme):
        scheme.bootstrap(samples[:n_bootstrap])

    series = EvaluationSeries(scheme=scheme.name, windowed=windowed)
    stream = samples[n_bootstrap:]
    fed = 0
    while fed < len(stream):
        horizon = scheme.decision_horizon()
        chunk = stream[fed:] if horizon is None else stream[fed : fed + horizon]
        decisions = scheme.decide_batch([sample.event for sample in chunk])
        for sample, decision in zip(chunk, decisions):
            series.y_true.append(sample.y)
            series.y_pred.append(int(decision))
            series.app_classes.append(sample.app_class)
            scheme.observe(sample.event, sample.y)
            fed += 1
            if fed % eval_every == 0:
                series._checkpoint()
    if not series.sample_counts or series.sample_counts[-1] != len(series.y_true):
        series._checkpoint()
    return series


def run_comparison(
    samples: Sequence[LabeledSample],
    schemes: Sequence[AdmissionScheme],
    n_bootstrap: int = 0,
    eval_every: int = 10,
    windowed: bool = False,
) -> Dict[str, EvaluationSeries]:
    """Evaluate several schemes over the same stream (paper's overlays)."""
    return {
        scheme.name: evaluate_scheme(
            samples, scheme, n_bootstrap=n_bootstrap, eval_every=eval_every,
            windowed=windowed,
        )
        for scheme in schemes
    }
