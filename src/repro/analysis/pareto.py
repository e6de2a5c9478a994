"""Pareto-front extraction.

Fig. 3f of the paper plots every retraining policy as a point
(average retraining epochs, % of chips meeting the accuracy constraint) and
observes that Reduce lies on the Pareto front: no other policy achieves more
satisfied chips with less average retraining.  These helpers compute that
front for arbitrary cost/quality trade-off points.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def pareto_mask(
    costs: Sequence[float],
    qualities: Sequence[float],
) -> np.ndarray:
    """Boolean mask of Pareto-optimal points (minimise cost, maximise quality).

    A point is Pareto-optimal when no other point has cost <= its cost and
    quality >= its quality with at least one strict inequality.
    """
    costs = np.asarray(costs, dtype=float)
    qualities = np.asarray(qualities, dtype=float)
    if costs.shape != qualities.shape or costs.ndim != 1:
        raise ValueError("costs and qualities must be 1-D arrays of equal length")
    n = len(costs)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominates = (
            (costs <= costs[i])
            & (qualities >= qualities[i])
            & ((costs < costs[i]) | (qualities > qualities[i]))
        )
        if np.any(dominates):
            mask[i] = False
    return mask


def pareto_front(
    points: Sequence[Dict[str, float]],
    cost_key: str,
    quality_key: str,
) -> List[Dict[str, float]]:
    """Pareto-optimal subset of ``points`` sorted by increasing cost."""
    if not points:
        return []
    costs = [float(point[cost_key]) for point in points]
    qualities = [float(point[quality_key]) for point in points]
    mask = pareto_mask(costs, qualities)
    optimal = [point for point, keep in zip(points, mask) if keep]
    return sorted(optimal, key=lambda point: float(point[cost_key]))


def dominates(
    cost_a: float, quality_a: float, cost_b: float, quality_b: float
) -> bool:
    """True when point A dominates point B (cheaper-or-equal and better-or-equal, one strict)."""
    return (
        cost_a <= cost_b
        and quality_a >= quality_b
        and (cost_a < cost_b or quality_a > quality_b)
    )


def hypervolume_2d(
    costs: Sequence[float],
    qualities: Sequence[float],
    reference_cost: float,
    reference_quality: float = 0.0,
) -> float:
    """Area dominated by the Pareto front relative to a reference point.

    Useful as a single scalar comparing whole policy families (larger is
    better).  Costs above ``reference_cost`` or qualities below
    ``reference_quality`` contribute nothing.
    """
    mask = pareto_mask(costs, qualities)
    front = sorted(
        (float(c), float(q))
        for c, q, keep in zip(costs, qualities, mask)
        if keep and c <= reference_cost and q >= reference_quality
    )
    area = 0.0
    best_quality = reference_quality
    for cost, quality in front:
        area += (reference_cost - cost) * max(0.0, quality - best_quality)
        best_quality = max(best_quality, quality)
    return area
