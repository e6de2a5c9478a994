"""Tests for the retraining-overhead accounting model."""

import pytest

from repro.core.overhead import (
    RetrainingCostModel,
    campaign_overhead,
    overhead_saving,
)

from tests.test_reporting_analysis import make_campaign


class TestCostModel:
    def test_defaults_valid(self):
        model = RetrainingCostModel()
        assert model.seconds_per_epoch > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrainingCostModel(seconds_per_epoch=-1)
        with pytest.raises(ValueError):
            RetrainingCostModel(evaluation_seconds=-1)


class TestCampaignOverhead:
    def test_conversion(self):
        campaign = make_campaign(epochs=(1.0, 3.0))  # 4 epochs total, 2 chips
        cost_model = RetrainingCostModel(
            seconds_per_epoch=10.0, joules_per_epoch=100.0,
            evaluation_seconds=1.0, evaluation_joules=5.0,
        )
        overhead = campaign_overhead(campaign, cost_model)
        assert overhead.total_epochs == pytest.approx(4.0)
        assert overhead.retraining_seconds == pytest.approx(40.0)
        assert overhead.evaluation_seconds == pytest.approx(2.0)
        assert overhead.total_seconds == pytest.approx(42.0)
        assert overhead.total_hours == pytest.approx(42.0 / 3600.0)
        assert overhead.total_joules == pytest.approx(4 * 100.0 + 2 * 5.0)
        assert overhead.total_kwh == pytest.approx(overhead.total_joules / 3.6e6)
        assert overhead.seconds_per_chip == pytest.approx(21.0)
        assert overhead.as_dict()["policy"] == campaign.policy_name

    def test_extra_evaluations_counted(self):
        campaign = make_campaign(epochs=(1.0, 1.0))
        cheap = campaign_overhead(campaign, evaluations_per_chip=1)
        costly = campaign_overhead(campaign, evaluations_per_chip=5)
        assert costly.total_evaluations == 10
        assert costly.total_seconds > cheap.total_seconds
        with pytest.raises(ValueError):
            campaign_overhead(campaign, evaluations_per_chip=-1)

    def test_overhead_saving(self):
        baseline = campaign_overhead(make_campaign("fixed", epochs=(2.0, 2.0)))
        proposed = campaign_overhead(make_campaign("reduce", epochs=(0.5, 1.5)))
        saving = overhead_saving(proposed, baseline)
        assert saving["epochs_saving"] == pytest.approx(0.5)
        assert 0.0 < saving["time_saving"] < 1.0
        assert 0.0 < saving["energy_saving"] < 1.0

    def test_saving_with_zero_baseline(self):
        zero = campaign_overhead(
            make_campaign("none", epochs=(0.0, 0.0)),
            RetrainingCostModel(seconds_per_epoch=0, joules_per_epoch=0,
                                evaluation_seconds=0, evaluation_joules=0),
        )
        saving = overhead_saving(zero, zero)
        assert saving["epochs_saving"] == 0.0
