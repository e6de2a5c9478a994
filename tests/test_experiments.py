"""Tests for experiment presets, contexts and the figure runners (smoke scale)."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.campaign.jobs import DEFAULT_FAT_BATCH
from repro.experiments import (
    ExperimentContext,
    available_presets,
    build_dataset,
    build_population,
    fast_preset,
    get_preset,
    paper_preset,
    run_fig2a,
    run_fig2b,
    run_fig3,
    smoke_preset,
)
from repro.experiments.common import clear_context_cache
from repro.training import evaluate_accuracy


class TestPresets:
    def test_available(self):
        assert set(available_presets()) == {"smoke", "fast", "paper"}
        assert get_preset("fast").name == "fast"
        with pytest.raises(KeyError):
            get_preset("galactic")

    def test_presets_are_well_formed(self):
        for factory in (smoke_preset, fast_preset, paper_preset):
            preset = factory()
            assert preset.array_rows > 0 and preset.array_cols > 0
            assert len(preset.fault_rates) >= 2
            assert preset.resilience_config().trials_per_rate >= 1
            assert 0 < preset.constraint_drop < 1
            assert preset.constraint().relative_drop == preset.constraint_drop

    def test_paper_preset_matches_paper_setup(self):
        preset = paper_preset()
        assert preset.array_rows == preset.array_cols == 256  # 256x256 systolic array
        assert preset.trials_per_rate == 5  # five repetitions per point (Fig. 2b)
        assert preset.num_chips == 100  # 100 faulty chips (Fig. 3)
        assert preset.model.name.startswith("vgg11")  # VGG11 evaluation network
        assert preset.dataset.num_classes == 10  # CIFAR-10-like task

    def test_dataset_built_from_spec(self):
        bundle = build_dataset(smoke_preset())
        preset = smoke_preset()
        assert bundle.num_classes == preset.dataset.num_classes
        assert bundle.input_shape[0] == preset.dataset.channels


class TestContext:
    def test_context_caching(self):
        clear_context_cache()
        first = ExperimentContext.from_preset(smoke_preset())
        second = ExperimentContext.from_preset(smoke_preset())
        assert first is second
        uncached = ExperimentContext.from_preset(smoke_preset(), use_cache=False)
        assert uncached is not first

    def test_context_contents(self, smoke_context):
        assert 0.0 < smoke_context.clean_accuracy <= 1.0
        assert smoke_context.target_accuracy() < smoke_context.clean_accuracy
        assert smoke_context.array.shape == (
            smoke_context.preset.array_rows,
            smoke_context.preset.array_cols,
        )
        framework = smoke_context.framework()
        assert framework.clean_accuracy == pytest.approx(smoke_context.clean_accuracy, abs=0.05)

    @pytest.mark.parametrize(
        "factory",
        [
            smoke_preset,
            fast_preset,
            lambda: dataclasses.replace(smoke_preset(), pretrain_epochs=0.0),
        ],
        ids=["smoke", "fast", "untrained"],
    )
    def test_clean_accuracy_is_the_pretrained_test_accuracy(self, factory):
        """``clean_accuracy`` is read off pre-training's final record; it must
        equal a separate test-set pass over the pre-trained model."""
        context = ExperimentContext.from_preset(factory())
        context.restore_pretrained()
        assert context.clean_accuracy == evaluate_accuracy(
            context.model, context.bundle.test
        )

    def test_restore_pretrained(self, smoke_context):
        state_before = {k: v.copy() for k, v in smoke_context.pretrained_state.items()}
        for parameter in smoke_context.model.parameters():
            parameter.data = parameter.data + 1.0
        smoke_context.restore_pretrained()
        for name, value in smoke_context.model.state_dict().items():
            np.testing.assert_allclose(value, state_before[name])

    def test_profile_cached_on_context(self, smoke_context):
        profile = smoke_context.resilience_profile()
        assert smoke_context.resilience_profile() is profile


class TestFig2Runners:
    def test_fig2a_shapes_and_monotonicity(self, smoke_context):
        result = run_fig2a(smoke_context)
        n_rates = len(smoke_context.preset.fig2a_fault_rates)
        n_amounts = len(result.retraining_amounts)
        assert result.mean_accuracy.shape == (n_amounts, n_rates)
        assert result.retraining_amounts[0] == 0.0
        assert np.all(result.min_accuracy <= result.max_accuracy + 1e-9)
        # More retraining never hurts on average at the highest fault rate (weak check).
        assert result.mean_accuracy[-1, 0] >= result.mean_accuracy[0, 0] - 0.1
        assert len(result.rows()) == n_amounts * n_rates
        assert "accuracy" in result.render()
        assert result.curve(0.0).shape == (n_rates,)

    def test_fig2b_shapes(self, smoke_context):
        result = run_fig2b(smoke_context)
        n_targets = len(smoke_context.preset.fig2b_accuracy_drops)
        n_rates = len(smoke_context.preset.fault_rates)
        assert result.mean_epochs.shape == (n_targets, n_rates)
        assert np.all(result.min_epochs <= result.max_epochs + 1e-9)
        assert np.all(result.mean_epochs >= 0)
        # Harder (higher) targets never need fewer epochs than easier ones at any rate.
        assert np.all(result.max_epochs[-1] >= result.max_epochs[0] - 1e-9)
        assert len(result.rows()) == n_targets * n_rates
        assert "epochs" in result.render()

    def test_fig2b_accepts_explicit_profile(self, smoke_context):
        profile = smoke_context.resilience_profile()
        result = run_fig2b(smoke_context, accuracy_drops=(0.05,), profile=profile)
        assert result.profile is profile
        assert result.target_accuracies.shape == (1,)


class TestFig3Runner:
    def test_population_generation(self, smoke_context):
        population = build_population(smoke_context, num_chips=5)
        assert len(population) == 5
        assert population.array_shape == smoke_context.array.shape

    def test_fig3_campaigns_and_summary(self, smoke_context):
        result = run_fig3(smoke_context, num_chips=4)
        expected_policies = {"reduce-max", "reduce-mean"} | {
            f"fixed-{e:g}ep" for e in smoke_context.preset.fixed_policy_epochs
        }
        assert set(result.policy_names) == expected_policies
        assert result.reduce_max.num_chips == 4
        for campaign in result.campaigns.values():
            assert np.all(campaign.accuracies() >= 0) and np.all(campaign.accuracies() <= 1)
            assert np.all(campaign.epochs() >= 0)
        summary_points = result.summary_points()
        assert len(summary_points) == len(expected_policies)
        assert len(result.pareto_policies()) >= 1
        assert isinstance(result.reduce_on_pareto_front(), bool)
        assert "reduce-max" in result.summary_table()
        assert "accuracy" in result.render_scatter()
        payload = result.to_dict()
        assert payload["target_accuracy"] == pytest.approx(result.target_accuracy)
        with pytest.raises(KeyError):
            result.campaign("nonexistent")

    def test_fig3_shares_one_step3_pass_across_policies(self, smoke_context, monkeypatch):
        """Every (policy, chip) row equals a separate engine run of that
        policy, yet each stack trains once: one ``train`` per (largest-budget
        group x ``fat_batch`` chunk), not one per policy."""
        from repro.accelerator.batched import BatchedFaultTrainer
        from repro.campaign import CampaignEngine

        population = build_population(smoke_context, num_chips=10)
        engine = CampaignEngine(smoke_context)
        reference = {
            "reduce-max": engine.run_reduce(population, "max"),
            "reduce-mean": engine.run_reduce(population, "mean"),
        }
        for budget in smoke_context.preset.fixed_policy_epochs:
            campaign = engine.run_fixed(population, budget)
            reference[campaign.policy_name] = campaign

        stacks = []
        train = BatchedFaultTrainer.train

        def spy(trainer, *args, **kwargs):
            stacks.append(trainer.num_chips)
            return train(trainer, *args, **kwargs)

        monkeypatch.setattr(BatchedFaultTrainer, "train", spy)
        result = run_fig3(smoke_context, population=population)
        monkeypatch.undo()

        assert list(result.campaigns) == list(reference)
        for name, campaign in result.campaigns.items():
            assert campaign.results == reference[name].results
        fat_batch = DEFAULT_FAT_BATCH

        def stacks_for(budgets):
            """One stacked run per ``fat_batch`` chunk of each trained budget."""
            sizes = Counter(budget for budget in budgets if budget > 0)
            return sum(-(-size // fat_batch) for size in sizes.values())

        largest: dict = {}
        for campaign in reference.values():
            for row in campaign.results:
                largest[row.chip_id] = max(largest.get(row.chip_id, 0.0), row.epochs_allocated)
        assert len(stacks) == stacks_for(largest.values())
        assert sum(stacks) == sum(1 for budget in largest.values() if budget > 0)
        assert len(stacks) < sum(
            stacks_for(row.epochs_allocated for row in campaign.results)
            for campaign in reference.values()
        )

    def test_fig3_without_reduce_mean(self, smoke_context):
        result = run_fig3(smoke_context, num_chips=2, include_reduce_mean=False, fixed_epochs=(0.25,))
        assert set(result.policy_names) == {"reduce-max", "fixed-0.25ep"}
        assert result.fixed_campaigns().keys() == {"fixed-0.25ep"}
