"""Pareto-front extraction.

Fig. 3f of the paper plots every retraining policy as a point
(average retraining epochs, % of chips meeting the accuracy constraint) and
observes that Reduce lies on the Pareto front: no other policy achieves more
satisfied chips with less average retraining.  These helpers compute that
front for arbitrary cost/quality trade-off points.
"""

from __future__ import annotations

from typing import Sequence

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
