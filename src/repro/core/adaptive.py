"""Adaptive incremental retraining (extension / comparison point).

An obvious alternative to Reduce's profile-driven selection is to retrain each
chip *incrementally*: train a little, evaluate on the test set, stop as soon
as the accuracy constraint is met.  This per-chip train-evaluate loop needs no
resilience analysis, but it pays for a full test-set evaluation after every
increment of every chip — overhead that Reduce's one-off resilience analysis
amortises across the whole chip population (and across future populations).

This module implements that adaptive baseline so the trade-off can be
quantified (``benchmarks/test_bench_ablation_adaptive.py``): epochs spent,
constraint satisfaction and the number of per-chip evaluations each approach
performs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.accelerator.batched import BatchedFaultTrainer
from repro.accelerator.mapping import model_fault_masks
from repro.core.chips import Chip, ChipPopulation
from repro.core.reduce import (
    CampaignResult,
    ChipRetrainingResult,
    ReduceFramework,
    _build_chip_result,
)
from repro.training import meets_target
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("core.adaptive")


@dataclasses.dataclass
class AdaptiveCampaignResult:
    """A retraining campaign plus the evaluation overhead it incurred."""

    campaign: CampaignResult
    evaluations_per_chip: Dict[str, int]

    @property
    def total_evaluations(self) -> int:
        """Total number of test-set evaluations performed across all chips."""
        return sum(self.evaluations_per_chip.values())

    @property
    def average_evaluations(self) -> float:
        return self.total_evaluations / max(len(self.evaluations_per_chip), 1)


def adaptive_retrain_chip(
    framework: ReduceFramework,
    chip: Chip,
    increments: Sequence[float],
) -> tuple:
    """Incrementally retrain one chip until the constraint is met.

    ``increments`` is the cumulative schedule of epoch amounts at which the
    accuracy is checked (e.g. ``[0.05, 0.25, 1.0, 2.0]``).  Returns
    ``(ChipRetrainingResult, num_evaluations)``.
    """
    increments = sorted(float(value) for value in increments if value > 0)
    if not increments:
        raise ValueError("increments must contain at least one positive epoch amount")

    framework._restore_pretrained()
    masks = model_fault_masks(framework.model, chip.fault_map)
    training_config = dataclasses.replace(
        framework.config.effective_retraining_config(),
        seed=derive_seed(framework.config.resilience.seed, "adaptive", chip.chip_id),
    )
    # A stack of one: each ``train(delta)`` call continues the same chip's
    # weights and optimizer state.
    trainer = BatchedFaultTrainer(
        framework.model,
        [masks],
        framework.bundle.train,
        framework.bundle.test,
        config=training_config,
    )
    target = framework.target_accuracy

    accuracy = trainer.evaluate()[0]
    accuracy_before = accuracy
    evaluations = 1
    previous = 0.0
    for checkpoint in increments:
        if meets_target(accuracy, target):
            break
        delta = checkpoint - previous
        if delta > 0:
            history = trainer.train(delta, include_initial=False)[0]
            accuracy = history.final_accuracy
            evaluations += 1
        previous = checkpoint

    result = _build_chip_result(
        chip, masks, increments[-1], trainer.epochs_taken, accuracy_before, accuracy, target
    )
    return result, evaluations


def run_adaptive_campaign(
    framework: ReduceFramework,
    population: ChipPopulation,
    increments: Optional[Sequence[float]] = None,
    progress: bool = False,
) -> AdaptiveCampaignResult:
    """Run the adaptive train-evaluate-stop baseline over a chip population.

    ``increments`` defaults to the resilience configuration's epoch
    checkpoints, i.e. the same granularity Reduce's profile uses.
    """
    if increments is None:
        increments = list(framework.config.resilience.epoch_checkpoints)
    results: List[ChipRetrainingResult] = []
    evaluations: Dict[str, int] = {}
    for chip in population:
        result, num_evaluations = adaptive_retrain_chip(framework, chip, increments)
        results.append(result)
        evaluations[chip.chip_id] = num_evaluations
        if progress:
            logger.info(
                "adaptive: chip %s rate=%.3f epochs=%.3f evals=%d meets=%s",
                chip.chip_id,
                result.fault_rate,
                result.epochs_trained,
                num_evaluations,
                result.meets_constraint,
            )
    campaign = CampaignResult(
        policy_name="adaptive-incremental",
        target_accuracy=framework.target_accuracy,
        clean_accuracy=framework.clean_accuracy,
        results=results,
    )
    return AdaptiveCampaignResult(campaign=campaign, evaluations_per_chip=evaluations)
