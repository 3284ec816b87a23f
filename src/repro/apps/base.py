"""Common interface for application QoE models."""

from __future__ import annotations

import abc
import functools
from typing import Dict, Type

from repro.wireless.qos import FlowQoS

__all__ = ["AppModel", "app_model_for_class"]


class AppModel(abc.ABC):
    """Maps network QoS to the application's ground-truth QoE metric.

    ``qoe_metric_name`` and ``qoe_unit`` describe what :meth:`measure_qoe`
    returns; ``higher_is_better`` tells consumers which direction is
    good (PSNR up, delays down).
    """

    app_class: str
    qoe_metric_name: str
    qoe_unit: str
    higher_is_better: bool

    @abc.abstractmethod
    def measure_qoe(self, qos: FlowQoS) -> float:
        """Ground-truth QoE the instrumented app would record."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(metric={self.qoe_metric_name!r})"


@functools.lru_cache(maxsize=None)
def _registry() -> Dict[str, Type[AppModel]]:
    """Class name -> default model type, built on first use (the model
    modules import this one, so they cannot be imported at its top)."""
    from repro.apps.conferencing import ConferencingApp
    from repro.apps.streaming import StreamingApp
    from repro.apps.web import WebApp
    from repro.traffic.flows import CONFERENCING, STREAMING, WEB

    return {WEB: WebApp, STREAMING: StreamingApp, CONFERENCING: ConferencingApp}


def app_model_for_class(app_class: str) -> AppModel:
    """Default app model for a class name (a fresh instance per call)."""
    try:
        model = _registry()[app_class]
    except KeyError:
        raise ValueError(f"unknown app class {app_class!r}") from None
    return model()
