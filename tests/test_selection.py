"""Tests for retraining-amount selection policies (Step 2)."""

import pytest

from repro.accelerator import FaultMap
from repro.core import (
    AccuracyConstraint,
    Chip,
    ChipPopulation,
    FixedEpochPolicy,
    ResilienceDrivenPolicy,
)

from tests.test_profiles import make_profile


def chip_with_rate(rate, rows=10, cols=10, chip_id="c"):
    return Chip(chip_id, FaultMap.random(rows, cols, rate, seed=1))


class TestFixedEpochPolicy:
    def test_constant_amount(self):
        policy = FixedEpochPolicy(0.25)
        assert policy.epochs_for_chip(chip_with_rate(0.0)) == 0.25
        assert policy.epochs_for_chip(chip_with_rate(0.4)) == 0.25
        assert policy.name == "fixed-0.25ep"
        assert "0.25" in policy.describe()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedEpochPolicy(-1.0)

    def test_population_mapping(self):
        population = ChipPopulation.generate(4, 8, 8, seed=0)
        amounts = FixedEpochPolicy(1.0).epochs_for_population(population)
        assert set(amounts) == {chip.chip_id for chip in population}
        assert all(value == 1.0 for value in amounts.values())


class TestResilienceDrivenPolicy:
    def test_amount_grows_with_fault_rate(self):
        policy = ResilienceDrivenPolicy(
            profile=make_profile(),
            constraint=AccuracyConstraint(absolute=0.93),
            statistic="max",
        )
        low = policy.epochs_for_chip(chip_with_rate(0.0, chip_id="low"))
        medium = policy.epochs_for_chip(chip_with_rate(0.1, chip_id="mid"))
        high = policy.epochs_for_chip(chip_with_rate(0.2, chip_id="high"))
        assert low <= medium <= high
        assert low == 0.0
        assert high == 2.0

    def test_max_statistic_is_more_conservative_than_mean(self):
        profile = make_profile()
        constraint = AccuracyConstraint(absolute=0.93)
        chip = chip_with_rate(0.2)
        max_policy = ResilienceDrivenPolicy(profile=profile, constraint=constraint, statistic="max")
        mean_policy = ResilienceDrivenPolicy(profile=profile, constraint=constraint, statistic="mean")
        assert max_policy.epochs_for_chip(chip) >= mean_policy.epochs_for_chip(chip)
        assert max_policy.name == "reduce-max"
        assert mean_policy.name == "reduce-mean"

    def test_relative_constraint_resolved_against_clean(self):
        policy = ResilienceDrivenPolicy(
            profile=make_profile(),
            constraint=AccuracyConstraint.within_drop_of_clean(0.02),
            statistic="max",
        )
        assert policy.target_accuracy == pytest.approx(0.93)

    def test_margin_added(self):
        profile = make_profile()
        base = ResilienceDrivenPolicy(
            profile=profile, constraint=AccuracyConstraint(absolute=0.93), statistic="max"
        )
        padded = ResilienceDrivenPolicy(
            profile=profile,
            constraint=AccuracyConstraint(absolute=0.93),
            statistic="max",
            margin_epochs=0.5,
        )
        chip = chip_with_rate(0.1)
        assert padded.epochs_for_chip(chip) == pytest.approx(base.epochs_for_chip(chip) + 0.5)
        with pytest.raises(ValueError):
            ResilienceDrivenPolicy(
                profile=profile,
                constraint=AccuracyConstraint(absolute=0.9),
                margin_epochs=-1.0,
            )

    def test_describe(self):
        policy = ResilienceDrivenPolicy(
            profile=make_profile(), constraint=AccuracyConstraint(absolute=0.93)
        )
        assert "statistic=max" in policy.describe()
