"""The Reduce framework: Steps 1 and 2, triage, and the Step-3 stack.

``ReduceFramework`` holds the inputs of Fig. 1 of the paper (a pre-trained
DNN, a dataset, a user-defined accuracy constraint and the systolic array)
and implements, per call,

1. the DNN's resilience to faults at different fault rates and amounts of
   retraining (:class:`~repro.core.resilience.ResilienceAnalyzer`),
2. the retraining amount for each chip, read off the resilience profile
   (:class:`~repro.core.selection.ResilienceDrivenPolicy`),
3. triage (every chip's initial accuracy,
   :meth:`ReduceFramework.triage_population`) and fault-aware retraining of
   one stack of chips (:meth:`ReduceFramework.retrain_chips_batched`).

Step 3 over a whole population (triage once, cut the chips into stacks,
retrain each stack, collect a :class:`CampaignResult`) is driven by
:class:`repro.campaign.CampaignEngine` (``run_reduce``, ``run_fixed`` and
``run``), whose planner alone sizes stacks.  ``repro.campaign`` imports this
module, never the reverse.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    evaluate_chip_accuracies,
)
from repro.accelerator.mapping import masked_weight_fraction
from repro.accelerator.systolic_array import SystolicArray
from repro.core.chips import Chip, ChipPopulation
from repro.core.constraints import AccuracyConstraint
from repro.core.profiles import ResilienceProfile
from repro.core.resilience import ResilienceAnalyzer, ResilienceConfig
from repro.core.results import ChipRetrainingResult
from repro.core.selection import ResilienceDrivenPolicy
from repro.data.synthetic import DatasetBundle
from repro.mitigation.strategy import (
    DEFAULT_STRATEGY_NAME,
    StrategyLike,
    resolve_strategy,
)
from repro.nn.serialization import clone_state_dict
from repro.training import CheckpointRecord, TrainingConfig, evaluate_accuracy, meets_target
from repro.utils.rng import derive_seed

#: Triage evaluates at most this many chips per stack: stacked weights cost
#: ``chips x model-size`` floats, so the chunk bounds triage's peak memory.
TRIAGE_CHIP_CHUNK = 16


@dataclasses.dataclass
class CampaignResult:
    """Aggregate outcome of retraining a whole chip population under one policy."""

    policy_name: str
    target_accuracy: float
    clean_accuracy: float
    results: List[ChipRetrainingResult]
    # Chips the supervisor gave up on (quarantined chunks): one record per
    # chip with at least ``chip_id``, ``reason`` and ``attempts``.  A
    # degraded campaign reports them here instead of crashing; the per-chip
    # views below cover only the chips that completed.
    failed_chips: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.results and not self.failed_chips:
            raise ValueError("a campaign result must contain at least one chip result")

    # -- per-chip views -------------------------------------------------------

    @property
    def num_chips(self) -> int:
        return len(self.results)

    def epochs(self) -> np.ndarray:
        """Per-chip retraining amounts actually spent (scatter y-axis of Fig. 3)."""
        return np.array([result.epochs_trained for result in self.results])

    def accuracies(self) -> np.ndarray:
        """Per-chip final accuracies (scatter x-axis of Fig. 3)."""
        return np.array([result.accuracy_after for result in self.results])

    def fault_rates(self) -> np.ndarray:
        return np.array([result.fault_rate for result in self.results])

    # -- aggregates ------------------------------------------------------------
    # A campaign whose every chip was quarantined has no completed chips: its
    # per-chip aggregates are NaN (and its total cost 0.0), not an error.

    @staticmethod
    def _over_chips(values: np.ndarray, reduce) -> float:
        return float(reduce(values)) if values.size else float("nan")

    @property
    def average_epochs(self) -> float:
        """Average retraining epochs per chip (x-axis of Fig. 3f)."""
        return self._over_chips(self.epochs(), np.mean)

    @property
    def total_epochs(self) -> float:
        """Total retraining cost over the whole population."""
        return float(self.epochs().sum())

    @property
    def fraction_meeting_constraint(self) -> float:
        """Fraction of chips meeting the accuracy constraint (y-axis of Fig. 3f)."""
        return self._over_chips(
            np.array([result.meets_constraint for result in self.results]), np.mean
        )

    @property
    def percent_meeting_constraint(self) -> float:
        return 100.0 * self.fraction_meeting_constraint

    @property
    def mean_accuracy(self) -> float:
        return self._over_chips(self.accuracies(), np.mean)

    @property
    def worst_accuracy(self) -> float:
        return self._over_chips(self.accuracies(), np.min)

    def summary(self) -> Dict[str, float]:
        """The row this policy contributes to Fig. 3f."""
        return {
            "policy": self.policy_name,
            "num_chips": self.num_chips,
            "target_accuracy": self.target_accuracy,
            "average_epochs": self.average_epochs,
            "total_epochs": self.total_epochs,
            "percent_meeting_constraint": self.percent_meeting_constraint,
            "mean_accuracy": self.mean_accuracy,
            "worst_accuracy": self.worst_accuracy,
        }

    def scatter_points(self) -> List[Dict[str, float]]:
        """(accuracy, epochs) pairs for the Fig. 3a-e style scatter plots."""
        return [
            {
                "chip_id": result.chip_id,
                "accuracy": result.accuracy_after,
                "epochs": result.epochs_trained,
                "fault_rate": result.fault_rate,
                "meets_constraint": float(result.meets_constraint),
            }
            for result in self.results
        ]

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "policy_name": self.policy_name,
            "target_accuracy": self.target_accuracy,
            "clean_accuracy": self.clean_accuracy,
            "summary": self.summary(),
            "chips": [dataclasses.asdict(result) for result in self.results],
        }
        if self.failed_chips:
            payload["failed_chips"] = list(self.failed_chips)
        return payload


def _build_chip_result(
    chip: Chip,
    masks: Dict[str, np.ndarray],
    epochs_allocated: float,
    epochs_trained: float,
    accuracy_before: float,
    accuracy_after: float,
    target: float,
    strategy: str = DEFAULT_STRATEGY_NAME,
) -> ChipRetrainingResult:
    """Assemble one chip's result row."""
    return ChipRetrainingResult(
        chip_id=chip.chip_id,
        fault_rate=chip.fault_rate,
        epochs_allocated=float(epochs_allocated),
        epochs_trained=float(epochs_trained),
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_after,
        meets_constraint=meets_target(accuracy_after, target),
        masked_weight_fraction=masked_weight_fraction(masks),
        strategy=strategy,
    )


@dataclasses.dataclass
class ReduceConfig:
    """Top-level configuration of the Reduce framework."""

    constraint: AccuracyConstraint = dataclasses.field(
        default_factory=lambda: AccuracyConstraint.within_drop_of_clean(0.02)
    )
    resilience: ResilienceConfig = dataclasses.field(default_factory=ResilienceConfig)
    retraining: Optional[TrainingConfig] = None
    statistic: str = "max"
    interpolation: str = "ceil"
    margin_epochs: float = 0.0

    def effective_retraining_config(self) -> TrainingConfig:
        """Training hyper-parameters used for per-chip retraining (Step 3)."""
        return self.retraining if self.retraining is not None else self.resilience.training


class ReduceFramework:
    """End-to-end implementation of the Reduce flow (Fig. 1 of the paper)."""

    def __init__(
        self,
        model: nn.Module,
        pretrained_state: Dict[str, np.ndarray],
        bundle: DatasetBundle,
        array: SystolicArray,
        config: Optional[ReduceConfig] = None,
        eval_pipeline: Optional[EvalPipeline] = None,
    ) -> None:
        self.model = model
        self.pretrained_state = clone_state_dict(pretrained_state)
        self.bundle = bundle
        self.array = array
        self.config = config if config is not None else ReduceConfig()
        # Eval configuration (the compute backend).  The experiment context
        # passes its one pipeline into every framework it builds.
        self.eval_pipeline = eval_pipeline if eval_pipeline is not None else EvalPipeline()
        self._profile: Optional[ResilienceProfile] = None
        self._clean_accuracy: Optional[float] = None

    # -- shared helpers -----------------------------------------------------------

    def _restore_pretrained(self) -> None:
        self.model.load_state_dict(self.pretrained_state)

    @property
    def clean_accuracy(self) -> float:
        """Accuracy of the pre-trained model on a fault-free chip."""
        if self._clean_accuracy is None:
            self._restore_pretrained()
            self._clean_accuracy = evaluate_accuracy(self.model, self.bundle.test)
        return self._clean_accuracy

    @property
    def target_accuracy(self) -> float:
        """The accuracy constraint resolved to an absolute threshold."""
        return self.config.constraint.resolve(self.clean_accuracy)

    # -- Step 1: resilience analysis -----------------------------------------------

    def analyze_resilience(self, force: bool = False) -> ResilienceProfile:
        """Run (or return the cached) resilience analysis."""
        if self._profile is None or force:
            analyzer = ResilienceAnalyzer(
                self.model,
                self.pretrained_state,
                self.bundle,
                self.array,
                self.config.resilience,
                eval_pipeline=self.eval_pipeline,
            )
            self._profile = analyzer.run()
            self._clean_accuracy = self._profile.clean_accuracy
        return self._profile

    def set_profile(self, profile: ResilienceProfile) -> None:
        """Inject a pre-computed resilience profile (e.g. loaded from disk)."""
        self._profile = profile
        self._clean_accuracy = profile.clean_accuracy

    def set_clean_accuracy(self, accuracy: float) -> None:
        """Inject a pre-computed clean accuracy (e.g. from the experiment
        context), avoiding a redundant test-set evaluation."""
        self._clean_accuracy = float(accuracy)

    # -- Step 2: retraining-amount selection -----------------------------------------

    def build_policy(self, statistic: Optional[str] = None) -> ResilienceDrivenPolicy:
        """The resilience-driven selection policy backed by the Step-1 profile."""
        profile = self.analyze_resilience()
        return ResilienceDrivenPolicy(
            profile=profile,
            constraint=self.config.constraint,
            statistic=statistic if statistic is not None else self.config.statistic,
            interpolation=self.config.interpolation,
            margin_epochs=self.config.margin_epochs,
        )

    def select_retraining_amounts(
        self, population: ChipPopulation, statistic: Optional[str] = None
    ) -> Dict[str, float]:
        """Per-chip retraining amounts (Step 2 output)."""
        return self.build_policy(statistic).epochs_for_population(population)

    # -- Step 2.5: batched population triage --------------------------------------

    def triage_population(
        self, chips: Iterable[Chip], strategy: StrategyLike = None
    ) -> Dict[str, float]:
        """Pre-retraining accuracy of every chip, in batched multi-chip passes.

        This is the "accuracy checkpoint" each retraining run would otherwise
        evaluate serially (``accuracy_before`` in the per-chip results): the
        pre-trained model under each chip's masks.  ``strategy`` selects how
        those masks are built (plain FAP masks by default; FAM strategies
        measure under their permuted masks — bypass strategies measure under
        the plain masks, their *pre-mitigation* faulty accuracy).  All chips
        share the pre-trained weights and differ only in their masks, so the
        stacked eval forward of
        :class:`~repro.accelerator.batched.BatchedFaultTrainer` computes B of
        them per sweep, bit-identical to the serial per-chip evaluation.
        """
        chip_list = list(chips)
        if not chip_list:
            return {}
        strategy = resolve_strategy(strategy)
        self._restore_pretrained()
        accuracies: List[float] = []
        pipeline = self.eval_pipeline
        # Masks and stacks are built (and released) chunk by chunk, so peak
        # memory is bounded by ``TRIAGE_CHIP_CHUNK`` chips, not the population.
        for start in range(0, len(chip_list), TRIAGE_CHIP_CHUNK):
            mask_sets = [
                strategy.chip_masks(self.model, chip.fault_map)
                for chip in chip_list[start:start + TRIAGE_CHIP_CHUNK]
            ]
            accuracies.extend(
                evaluate_chip_accuracies(
                    self.model,
                    self.bundle.test,
                    mask_sets,
                    self._fat_training_config(),
                    eval_pipeline=pipeline,
                )
            )
        return {chip.chip_id: acc for chip, acc in zip(chip_list, accuracies)}

    # -- Step 3: per-chip fault-aware retraining ---------------------------------------

    def _fat_training_config(self) -> TrainingConfig:
        """Training config for Step-3 retraining, with the FAT seed resolved.

        The seed is shared across the whole population (not derived per chip):
        chips differ in their fault masks, not in their data — and a shared
        mini-batch stream lets a chunk run as one
        :class:`BatchedFaultTrainer` that lowers each training batch once for
        all its chips (the shared prefix), bit-identical to retraining each
        chip alone.  Because every budget walks the same stream, a pass to
        the largest budget also passes through every smaller budget's end
        state, so one pass serves all of them.
        """
        return dataclasses.replace(
            self.config.effective_retraining_config(),
            seed=derive_seed(self.config.resilience.seed, "fat"),
        )

    def retrain_chips_batched(
        self,
        chips: Sequence[Chip],
        epochs: Union[float, Sequence[float]],
        accuracies_before: Dict[str, float],
        target_accuracy: Optional[float] = None,
        strategy: StrategyLike = None,
    ) -> List[ChipRetrainingResult]:
        """Mitigate several chips under one strategy as one stack.

        The one Step-3 execution path: every campaign chunk runs through it,
        a single chip being a stack of one.  ``epochs`` is one budget for
        every entry of ``chips``, or one budget per entry; a chip may appear
        several times, once per budget asked of it (the Fig. 3 policies ask
        each chip for up to five).  Returns one result per entry, in entry
        order, and each equals the chip retrained alone through the serial
        reference loop (``tests/helpers.py``: ``reference_retrain_chip``) —
        bit-identical on this BLAS build, so any partition of chips into
        calls gives the same rows.

        Every distinct chip takes one slot of a single
        :class:`~repro.accelerator.batched.BatchedFaultTrainer` stack, which
        trains once, to the largest budget of any entry.  The caller sizes
        the stack: in a campaign that is the planner,
        :func:`~repro.campaign.jobs.plan_job_chunks`.  Every smaller budget
        is an in-stream readout of that pass
        (``train(..., in_stream=True)``): all chips share one seeded data
        stream, so the readout is exactly the end state of a separate run to
        that budget.  Every parametric layer family (``Linear`` and
        ``Conv2d``) stacks, so there is no serial fallback: a genuinely
        unstackable custom layer raises
        :class:`~repro.accelerator.batched.UnsupportedModelError` at trainer
        construction.

        ``accuracies_before`` maps every chip id to its initial accuracy, as
        measured by :meth:`triage_population` under the same strategy; a
        missing chip raises :class:`ValueError`.  A zero budget reads the
        initial accuracy, and a call whose budgets are all zero builds no
        trainer at all.

        ``strategy`` selects the mitigation recipe: non-retraining strategies
        clamp the budget to zero, and a strategy's masks are just another
        per-chip mask set stacked into the batched trainer's keep-multipliers,
        so FAP/FAM prune masks ride the same machinery as plain fault masks.
        Bypassable chips under a bypass strategy never enter training (their
        accuracy is preserved by the shrunk array); the rest of the chips
        train normally.

        The trainer evaluates through the framework's ``eval_pipeline``.
        """
        entries = list(chips)
        if np.ndim(epochs) == 0:
            budgets = [float(epochs)] * len(entries)
        else:
            budgets = [float(budget) for budget in epochs]
            if len(budgets) != len(entries):
                raise ValueError(
                    f"got {len(budgets)} budgets for {len(entries)} chip entries"
                )
        if any(budget < 0 for budget in budgets):
            raise ValueError("epochs must be non-negative")
        missing = list(dict.fromkeys(
            chip.chip_id for chip in entries if chip.chip_id not in accuracies_before
        ))
        if missing:
            raise ValueError(
                f"accuracies_before has no initial accuracy for chips {missing}; "
                "measure them with triage_population"
            )
        strategy = resolve_strategy(strategy)
        if not entries:
            return []
        # Non-retraining strategies spend no budget; bypass-infeasible chips
        # of a retraining bypass strategy fall back to the full FAT budget.
        if not strategy.retrain:
            budgets = [0.0] * len(entries)
        target = target_accuracy if target_accuracy is not None else self.target_accuracy
        results: List[Optional[ChipRetrainingResult]] = [None] * len(entries)

        # One stack slot per distinct chip, listing the entries it answers.
        slots: Dict[str, List[int]] = {}
        for index, chip in enumerate(entries):
            slots.setdefault(chip.chip_id, []).append(index)

        # Bypassable chips are satisfied by the shrunk array alone: their
        # result is fully determined by the pre-mitigation accuracy, so they
        # never take a stack slot.
        stack: List[Chip] = []
        for indices in slots.values():
            chip = entries[indices[0]]
            if strategy.bypass_plan(chip.fault_map) is None:
                stack.append(chip)
                continue
            for index in indices:
                results[index] = _build_chip_result(
                    chip, {}, 0.0, 0.0, accuracies_before[chip.chip_id],
                    self.clean_accuracy, target, strategy=strategy.name,
                )
        if not stack:
            return list(results)

        self._restore_pretrained()
        mask_sets = [strategy.chip_masks(self.model, chip.fault_map) for chip in stack]
        readouts = sorted(
            {budgets[i] for chip in stack for i in slots[chip.chip_id]} - {0.0}
        )
        records: List[Dict[float, CheckpointRecord]] = [{} for _ in stack]
        if readouts:
            trainer = BatchedFaultTrainer(
                self.model,
                mask_sets,
                self.bundle.train,
                self.bundle.test,
                config=self._fat_training_config(),
                eval_pipeline=self.eval_pipeline,
            )
            histories = trainer.train(
                readouts[-1],
                eval_checkpoints=readouts,
                include_initial=False,
                in_stream=True,
            )
            records = [
                {record.epochs: record for record in history.records}
                for history in histories
            ]
        for position, chip in enumerate(stack):
            before = accuracies_before[chip.chip_id]
            for index in slots[chip.chip_id]:
                budget = budgets[index]
                record = records[position].get(budget)
                trained, after = (
                    (record.epochs, record.eval_accuracy)
                    if record is not None
                    else (0.0, before)
                )
                results[index] = _build_chip_result(
                    chip, mask_sets[position], budget, trained,
                    before, after, target, strategy=strategy.name,
                )
        return list(results)
