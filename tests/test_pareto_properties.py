"""Property tests for the Pareto mask against a brute-force reference.

``pareto_mask`` backs the Fig. 3f analysis; these tests check it on
randomized point clouds (including duplicate points and axis ties) against a
direct O(n^2) reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.pareto import pareto_mask
from tests.helpers import dominates


def _brute_force_mask(costs, qualities):
    n = len(costs)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(costs[j], qualities[j], costs[i], qualities[i]):
                mask[i] = False
                break
    return mask


class TestParetoMaskProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        costs = rng.uniform(0, 5, size=n)
        qualities = rng.uniform(0, 1, size=n)
        # Inject duplicates and ties half the time.
        if n > 4:
            costs[1] = costs[0]
            qualities[1] = qualities[0]  # exact duplicate
            costs[2] = costs[3]  # cost tie, different quality
        mask = pareto_mask(costs, qualities)
        np.testing.assert_array_equal(mask, _brute_force_mask(costs, qualities))

    def test_duplicate_points_all_survive_or_all_die(self):
        costs = [1.0, 1.0, 2.0]
        qualities = [0.8, 0.8, 0.5]
        mask = pareto_mask(costs, qualities)
        # Exact duplicates do not dominate each other (no strict inequality),
        # so both copies stay on the front; the dominated point dies.
        assert mask.tolist() == [True, True, False]

    def test_empty_input(self):
        mask = pareto_mask([], [])
        assert mask.shape == (0,)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            pareto_mask([1.0, 2.0], [0.5])

    def test_front_members_are_mutually_nondominating(self):
        rng = np.random.default_rng(99)
        costs = rng.uniform(0, 5, size=30)
        qualities = rng.uniform(0, 1, size=30)
        mask = pareto_mask(costs, qualities)
        front = [(c, q) for c, q, m in zip(costs, qualities, mask) if m]
        for i, (ci, qi) in enumerate(front):
            for j, (cj, qj) in enumerate(front):
                if i != j:
                    assert not dominates(cj, qj, ci, qi)
