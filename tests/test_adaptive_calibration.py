"""Tests for the adaptive-incremental baseline."""

import dataclasses

import pytest

from repro.core import ChipPopulation, run_adaptive_campaign
from repro.core.adaptive import adaptive_retrain_chip


class TestAdaptiveRetraining:
    @pytest.fixture()
    def framework(self, smoke_context):
        framework = smoke_context.framework()
        framework.analyze_resilience()
        return framework

    def test_adaptive_chip_meets_or_exhausts_budget(self, framework, smoke_context):
        population = ChipPopulation.generate(
            2, *smoke_context.array.shape, fault_rates=[0.0, 0.3], seed=5
        )
        clean_chip_result, clean_evals = adaptive_retrain_chip(framework, population[0], [0.25, 1.0])
        # A fault-free chip needs no retraining and only the initial evaluation.
        assert clean_chip_result.epochs_trained == 0.0
        assert clean_evals == 1
        assert clean_chip_result.meets_constraint

        faulty_result, faulty_evals = adaptive_retrain_chip(framework, population[1], [0.25, 1.0])
        assert faulty_evals >= 1
        assert faulty_result.epochs_trained <= 1.0 + 1e-6
        if not faulty_result.meets_constraint:
            # Budget exhausted: it must have trained up to the full schedule.
            assert faulty_result.epochs_trained == pytest.approx(1.0, rel=0.05)

    def test_adaptive_campaign_bookkeeping(self, framework, smoke_context):
        population = ChipPopulation.generate(
            3, *smoke_context.array.shape, fault_rates=(0.0, 0.25), seed=6
        )
        result = run_adaptive_campaign(framework, population, increments=[0.25, 1.0])
        assert result.campaign.policy_name == "adaptive-incremental"
        assert result.campaign.num_chips == 3
        assert set(result.evaluations_per_chip) == {chip.chip_id for chip in population}
        assert result.total_evaluations >= 3  # at least the initial evaluation per chip
        assert result.average_evaluations >= 1.0

    def test_same_result_under_the_reference_trainer(self, framework, smoke_context):
        """The stacked increment loop and the same loop through the serial
        reference give the same chip result and evaluation count."""
        from repro.accelerator import model_fault_masks
        from repro.core.reduce import _build_chip_result
        from repro.training import meets_target
        from repro.utils.rng import derive_seed

        from tests.helpers import ReferenceTrainer

        chip = ChipPopulation.generate(
            1, *smoke_context.array.shape, fault_rates=0.9, seed=6
        )[0]
        increments = [0.05, 0.1, 0.25, 0.5, 1.0]
        stacked = adaptive_retrain_chip(framework, chip, increments)

        framework._restore_pretrained()
        masks = model_fault_masks(framework.model, chip.fault_map)
        config = dataclasses.replace(
            framework.config.effective_retraining_config(),
            seed=derive_seed(framework.config.resilience.seed, "adaptive", chip.chip_id),
        )
        trainer = ReferenceTrainer(
            framework.model, framework.bundle.train, framework.bundle.test,
            config=config, masks=masks,
        )
        target = framework.target_accuracy
        accuracy = before = trainer.evaluate()
        evaluations = 1
        previous = 0.0
        for checkpoint in increments:
            if meets_target(accuracy, target):
                break
            accuracy = trainer.train(checkpoint - previous, include_initial=False).final_accuracy
            evaluations += 1
            previous = checkpoint
        framework._restore_pretrained()
        reference = _build_chip_result(
            chip, masks, increments[-1], trainer.epochs_taken, before, accuracy, target
        )
        assert stacked == (reference, evaluations)
        # The chip misses the target: every increment trained and evaluated.
        assert stacked[1] == 1 + len(increments)

    def test_invalid_increments(self, framework, smoke_context):
        population = ChipPopulation.generate(1, *smoke_context.array.shape, seed=0)
        with pytest.raises(ValueError):
            adaptive_retrain_chip(framework, population[0], [])

