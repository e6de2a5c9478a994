"""Integration tests for the Reduce framework (Steps 1-3) and resilience analysis."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.accelerator import batched as batched_module
from repro.accelerator.batched import BatchedFaultTrainer
from repro.campaign import CampaignEngine
from repro.core import resilience as resilience_module
from repro.accelerator import SystolicArray
from repro.core import (
    AccuracyConstraint,
    CampaignResult,
    ChipPopulation,
    ReduceConfig,
    ReduceFramework,
    ResilienceAnalyzer,
    ResilienceConfig,
)
from repro.core.results import ChipRetrainingResult
from repro.core.reporting import campaign_summary_table
from repro.models import MLP
from repro.nn import clone_state_dict
from repro.training import Trainer, TrainingConfig
from tests.helpers import reference_retrain_chip, serial_resilience_accuracies


@pytest.fixture(scope="module")
def pretrained_setup():
    """A small pre-trained MLP on the image bundle, shared by the module."""
    from repro.data import make_class_template_images

    bundle = make_class_template_images(
        num_classes=4, train_per_class=16, test_per_class=8,
        image_size=8, channels=2, noise_std=0.3, shift_pixels=0, seed=1,
    )
    features = int(np.prod(bundle.input_shape))
    model = MLP(features, bundle.num_classes, hidden_sizes=(32,), seed=3)
    config = TrainingConfig(learning_rate=0.1, batch_size=16, seed=0)
    Trainer(model, bundle.train, bundle.test, config).train(4.0)
    return model, clone_state_dict(model.state_dict()), bundle, config


@pytest.fixture(scope="module")
def unsaturated_setup():
    """A briefly pre-trained MLP on noisy images, with a 6-cell grid.

    Accuracies stay well below 1.0 on 80 test images, so they move with
    every trial's mini-batch order.  Two non-zero rates x
    three trials make stacks of four and two cells.
    """
    from repro.data import make_class_template_images

    bundle = make_class_template_images(
        num_classes=4, train_per_class=16, test_per_class=20,
        image_size=8, channels=2, noise_std=1.0, shift_pixels=1, seed=1,
    )
    features = int(np.prod(bundle.input_shape))
    model = MLP(features, bundle.num_classes, hidden_sizes=(32,), seed=3)
    training = TrainingConfig(learning_rate=0.05, batch_size=16, seed=0)
    Trainer(model, bundle.train, bundle.test, training).train(1.0)
    config = dataclasses.replace(resilience_config(training), trials_per_rate=3)
    return model, clone_state_dict(model.state_dict()), bundle, config


def resilience_config(training):
    return ResilienceConfig(
        fault_rates=(0.0, 0.2, 0.5),
        epoch_checkpoints=(0.25, 1.0),
        trials_per_rate=2,
        training=training,
        seed=0,
    )


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(fault_rates=())
        with pytest.raises(ValueError):
            ResilienceConfig(fault_rates=(0.5, 0.1))
        with pytest.raises(ValueError):
            ResilienceConfig(fault_rates=(0.0, 1.5))
        with pytest.raises(ValueError):
            ResilienceConfig(epoch_checkpoints=(0.0, 1.0))
        with pytest.raises(ValueError):
            ResilienceConfig(epoch_checkpoints=(2.0, 1.0))
        with pytest.raises(ValueError):
            ResilienceConfig(trials_per_rate=0)
        assert ResilienceConfig().max_epochs == 2.0


class TestResilienceAnalyzer:
    def test_profile_shape_and_contents(self, pretrained_setup):
        model, state, bundle, training = pretrained_setup
        analyzer = ResilienceAnalyzer(
            model, state, bundle, SystolicArray(16, 16), resilience_config(training)
        )
        profile = analyzer.run()
        assert profile.accuracies.shape == (3, 2, 3)  # rates x trials x (0 + checkpoints)
        assert profile.clean_accuracy > 0.5
        # Zero fault rate rows are the clean accuracy.
        np.testing.assert_allclose(profile.accuracies[0], profile.clean_accuracy)
        # Accuracy at a given rate should not decrease (on average) with retraining.
        surface = profile.accuracies.mean(axis=1)
        assert surface[1, -1] >= surface[1, 0] - 0.05
        assert profile.metadata["fault_model"] == "random"

    def test_matches_serial_per_trial_reference(self, unsaturated_setup):
        """The stacked grid equals one serial retraining per cell, bit for bit."""
        model, state, bundle, config = unsaturated_setup
        analyzer = ResilienceAnalyzer(model, state, bundle, SystolicArray(16, 16), config)
        assert 6 % resilience_module.TRIAL_STACK != 0
        profile = analyzer.run()
        assert np.array_equal(profile.accuracies, serial_resilience_accuracies(analyzer))

    def test_one_shared_trial_seed_breaks_the_reference(self, unsaturated_setup, monkeypatch):
        """The reference check is sensitive to the per-trial seeds: training
        every cell of a stack under one shared seed changes the grid."""
        model, state, bundle, config = unsaturated_setup
        analyzer = ResilienceAnalyzer(model, state, bundle, SystolicArray(16, 16), config)

        def shared_seed_trainer(*args, seeds=None, **kwargs):
            # Step-1 stacks pass their cells' seeds; the clean eval passes none.
            if seeds is not None:
                seeds = [seeds[0]] * len(seeds)
            return BatchedFaultTrainer(*args, seeds=seeds, **kwargs)

        monkeypatch.setattr(batched_module, "BatchedFaultTrainer", shared_seed_trainer)
        profile = analyzer.run()
        assert not np.array_equal(profile.accuracies, serial_resilience_accuracies(analyzer))

    def test_model_restored_after_analysis(self, pretrained_setup):
        model, state, bundle, training = pretrained_setup
        analyzer = ResilienceAnalyzer(
            model, state, bundle, SystolicArray(16, 16), resilience_config(training)
        )
        analyzer.run()
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(value, state[name])


class TestReduceFramework:
    @pytest.fixture()
    def framework(self, pretrained_setup):
        model, state, bundle, training = pretrained_setup
        config = ReduceConfig(
            constraint=AccuracyConstraint.within_drop_of_clean(0.05),
            resilience=resilience_config(training),
            retraining=training,
        )
        return ReduceFramework(model, state, bundle, SystolicArray(16, 16), config=config)

    def test_clean_accuracy_and_target(self, framework):
        assert 0.5 < framework.clean_accuracy <= 1.0
        assert framework.target_accuracy == pytest.approx(framework.clean_accuracy - 0.05)

    def test_profile_cached(self, framework):
        first = framework.analyze_resilience()
        second = framework.analyze_resilience()
        assert first is second
        third = framework.analyze_resilience(force=True)
        assert third is not first

    def test_selection_scales_with_fault_rate(self, framework):
        population = ChipPopulation.generate(
            4, 16, 16, fault_rates=[0.0, 0.1, 0.3, 0.5], seed=0
        )
        amounts = framework.select_retraining_amounts(population)
        rates = [chip.fault_rate for chip in population]
        ordered = [amounts[chip.chip_id] for chip in population]
        assert ordered == sorted(ordered)
        assert ordered[0] == 0.0
        assert len(amounts) == 4

    def test_retrain_chip_returns_state(self, framework):
        population = ChipPopulation.generate(1, 16, 16, fault_rates=0.3, seed=1)
        result, state = reference_retrain_chip(
            framework, population[0], epochs=0.25, return_state=True
        )
        assert isinstance(result, ChipRetrainingResult)
        assert result.epochs_trained == pytest.approx(0.25)
        assert 0.0 < result.masked_weight_fraction < 1.0
        assert isinstance(state, dict) and "body.0.weight" in state
        with pytest.raises(ValueError):
            reference_retrain_chip(framework, population[0], epochs=-1)

    def test_zero_epoch_chip_is_fap_only(self, framework):
        population = ChipPopulation.generate(1, 16, 16, fault_rates=0.2, seed=2)
        result = reference_retrain_chip(framework, population[0], epochs=0.0)
        assert result.epochs_trained == 0.0
        assert result.accuracy_after == pytest.approx(result.accuracy_before)

    def test_run_and_fixed_policy_campaigns(self, smoke_context):
        population = ChipPopulation.generate(
            4, 16, 16, fault_rates=(0.0, 0.4), seed=3
        )
        engine = CampaignEngine(smoke_context)
        reduce_campaign = engine.run_reduce(population, "max")
        fixed_campaign = engine.run_fixed(population, epochs=0.25)
        assert reduce_campaign.num_chips == fixed_campaign.num_chips == 4
        assert reduce_campaign.policy_name == "reduce-max"
        assert fixed_campaign.policy_name == "fixed-0.25ep"
        assert 0.0 <= reduce_campaign.fraction_meeting_constraint <= 1.0
        assert fixed_campaign.average_epochs == pytest.approx(0.25)
        # Reduce must satisfy at least as many chips as the equal-effort check below.
        summary = reduce_campaign.summary()
        assert set(summary) >= {"policy", "average_epochs", "percent_meeting_constraint"}

    def test_campaign_result_views(self, smoke_context):
        population = ChipPopulation.generate(3, 16, 16, fault_rates=0.2, seed=4)
        campaign = CampaignEngine(smoke_context).run_fixed(population, epochs=0.25)
        assert campaign.epochs().shape == (3,)
        assert campaign.accuracies().shape == (3,)
        assert campaign.fault_rates().shape == (3,)
        assert len(campaign.scatter_points()) == 3
        assert campaign.total_epochs == pytest.approx(0.75)
        assert campaign.worst_accuracy <= campaign.mean_accuracy
        payload = campaign.to_dict()
        assert payload["policy_name"] == "fixed-0.25ep"
        assert len(payload["chips"]) == 3

    def test_campaign_requires_results(self):
        with pytest.raises(ValueError):
            CampaignResult(policy_name="x", target_accuracy=0.9, clean_accuracy=0.95, results=[])

    def test_campaign_without_completed_chips_aggregates_nan(self):
        campaign = CampaignResult(
            policy_name="x", target_accuracy=0.9, clean_accuracy=0.95, results=[],
            failed_chips=[{"chip_id": "chip-0", "reason": "boom", "attempts": 1}],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = campaign.summary()
            payload = campaign.to_dict()
            campaign_summary_table([campaign])
        assert summary["num_chips"] == 0
        assert summary["total_epochs"] == 0.0
        for key in (
            "average_epochs", "percent_meeting_constraint",
            "mean_accuracy", "worst_accuracy",
        ):
            assert np.isnan(summary[key])
        assert payload["chips"] == []
        assert payload["failed_chips"] == campaign.failed_chips

    def test_injected_profile_is_used(self, framework, pretrained_setup):
        profile = framework.analyze_resilience()
        model, state, bundle, training = pretrained_setup
        fresh = ReduceFramework(
            model, state, bundle, SystolicArray(16, 16),
            config=ReduceConfig(
                constraint=AccuracyConstraint.within_drop_of_clean(0.05),
                resilience=resilience_config(training),
            ),
        )
        fresh.set_profile(profile)
        assert fresh.analyze_resilience() is profile
