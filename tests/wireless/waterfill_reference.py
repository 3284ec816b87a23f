"""Reference water-filling for equivalence tests: the 60-step bisection
that :func:`repro.wireless.fluid._waterfill` used to run. The exact
sorted-walk level must reproduce its allocations to 1e-11 relative."""

from typing import List, Sequence

__all__ = ["bisection_waterfill"]


def bisection_waterfill(
    demands: Sequence[float], costs: Sequence[float], budget: float
) -> List[float]:
    if budget <= 0:
        return [0.0 for _ in demands]
    total_cost = sum(d * c for d, c in zip(demands, costs))
    if total_cost <= budget:
        return list(demands)
    lo, hi = 0.0, max(demands)
    for _ in range(60):  # bisection to far-below-float precision
        mid = 0.5 * (lo + hi)
        used = sum(min(d, mid) * c for d, c in zip(demands, costs))
        if used > budget:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    return [min(d, level) for d in demands]
