"""CI regression gate: compare a metrics snapshot against a baseline.

``benchmarks/baselines/BENCH_baseline_obs.json`` is a committed
``BENCH_*.json`` export plus a ``gate`` block declaring tolerances::

    "gate": {
        "histograms": {
            "latency.decision": {"stat": "p99", "max_ratio": 10.0},
            "svm.fit":          {"stat": "p50", "max_ratio": 10.0}
        },
        "gauges": {
            "latency.eval.precision": {"max_drop": 0.15}
        }
    }

``python -m repro obs check --baseline B --candidate C`` evaluates the
gate and exits non-zero on any breach, which is how CI fails a commit
that regresses the Section 5.3 latency distributions or the admission
precision/recall beyond tolerance. Latency checks are *ratios* against
the baseline (CI hardware varies run to run; a 10x blowup is a code
regression, a 1.3x wobble is the machine), quality checks are absolute
drops (precision is hardware-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.exporters import load_snapshot
from repro.obs.registry import Histogram

__all__ = ["GateCheck", "GateResult", "check_baseline"]


def _metrics_of(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Accept either a bare snapshot dict or a BENCH payload."""
    return payload.get("metrics", payload)


def _hist_stat(hist: Histogram, stat: str) -> Optional[float]:
    if stat == "count":
        return float(hist.count)
    if stat == "mean":
        return hist.mean
    if stat == "p50":
        return hist.quantile(0.5)
    if stat == "p95":
        return hist.quantile(0.95)
    if stat == "p99":
        return hist.quantile(0.99)
    if stat == "max":
        return hist.max
    raise ValueError(f"unknown histogram stat {stat!r}")


@dataclass
class GateCheck:
    """One evaluated tolerance rule."""

    name: str
    kind: str  # "histogram" | "gauge"
    stat: str
    baseline: Optional[float]
    observed: Optional[float]
    limit: float
    limit_kind: str  # "max_ratio" | "max_drop" | "max_rise"
    ok: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name} {self.stat}: {self.detail}"


@dataclass
class GateResult:
    """All gate checks for one baseline/candidate pair."""

    checks: List[GateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        verdict = (
            "baseline gate: OK"
            if self.ok
            else f"baseline gate: {len(self.failures)} breach(es)"
        )
        return "\n".join([*lines, verdict]) + "\n"


def _check_histogram(
    name: str,
    rule: Dict[str, Any],
    baseline_value: Optional[float],
    observed_value: Optional[float],
) -> GateCheck:
    stat = str(rule.get("stat", "p99"))
    max_ratio = float(rule.get("max_ratio", 10.0))
    if observed_value is None:
        return GateCheck(
            name, "histogram", stat, baseline_value, None, max_ratio,
            "max_ratio", False, "metric missing (or empty) in candidate",
        )
    if baseline_value is None or baseline_value <= 0.0:
        # Nothing to take a ratio against; an absolute cap may be given.
        max_abs = rule.get("max_abs")
        if max_abs is None:
            return GateCheck(
                name, "histogram", stat, baseline_value, observed_value,
                max_ratio, "max_ratio", True,
                "baseline empty and no max_abs configured; skipped",
            )
        ok = observed_value <= float(max_abs)
        return GateCheck(
            name, "histogram", stat, baseline_value, observed_value,
            float(max_abs), "max_abs", ok,
            f"observed {observed_value:g} vs absolute cap {float(max_abs):g}",
        )
    ratio = observed_value / baseline_value
    ok = ratio <= max_ratio
    return GateCheck(
        name, "histogram", stat, baseline_value, observed_value, max_ratio,
        "max_ratio", ok,
        f"observed {observed_value:g} = {ratio:.2f}x baseline "
        f"{baseline_value:g} (limit {max_ratio:g}x)",
    )


def _check_gauge(
    name: str,
    rule: Dict[str, Any],
    baseline_value: Optional[float],
    observed_value: Optional[float],
) -> GateCheck:
    if "max_rise" in rule:
        limit_kind, limit = "max_rise", float(rule["max_rise"])
    else:
        limit_kind, limit = "max_drop", float(rule.get("max_drop", 0.1))
    if observed_value is None or baseline_value is None:
        return GateCheck(
            name, "gauge", "value", baseline_value, observed_value, limit,
            limit_kind, False, "metric missing in baseline or candidate",
        )
    if limit_kind == "max_drop":
        ok = observed_value >= baseline_value - limit
        detail = (
            f"observed {observed_value:g} vs baseline {baseline_value:g} "
            f"(allowed drop {limit:g})"
        )
    else:
        ok = observed_value <= baseline_value + limit
        detail = (
            f"observed {observed_value:g} vs baseline {baseline_value:g} "
            f"(allowed rise {limit:g})"
        )
    return GateCheck(
        name, "gauge", "value", baseline_value, observed_value, limit,
        limit_kind, ok, detail,
    )


def check_baseline(
    baseline_payload: Dict[str, Any],
    candidate_payload: Dict[str, Any],
    gate: Optional[Dict[str, Any]] = None,
) -> GateResult:
    """Evaluate the gate rules; see the module docstring for the format.

    ``gate`` defaults to the baseline payload's own ``"gate"`` block, so
    the committed baseline file is self-describing. An empty gate passes
    trivially (and loudly, via an empty report).
    """
    if gate is None:
        gate = baseline_payload.get("gate", {})
    baseline = load_snapshot(_metrics_of(baseline_payload))
    candidate = load_snapshot(_metrics_of(candidate_payload))
    result = GateResult()

    hist_rules = gate.get("histograms", {})
    base_hists = baseline.histograms()
    cand_hists = candidate.histograms()
    for name in sorted(hist_rules):
        rule = hist_rules[name]
        stat = str(rule.get("stat", "p99"))
        base_value = (
            _hist_stat(base_hists[name], stat) if name in base_hists else None
        )
        cand_value = (
            _hist_stat(cand_hists[name], stat) if name in cand_hists else None
        )
        result.checks.append(_check_histogram(name, rule, base_value, cand_value))

    gauge_rules = gate.get("gauges", {})
    base_gauges = baseline.gauges()
    cand_gauges = candidate.gauges()
    for name in sorted(gauge_rules):
        rule = gauge_rules[name]
        base_value = base_gauges[name].value if name in base_gauges else None
        cand_value = cand_gauges[name].value if name in cand_gauges else None
        result.checks.append(_check_gauge(name, rule, base_value, cand_value))
    return result
