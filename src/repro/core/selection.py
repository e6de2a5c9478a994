"""Step 2 of the Reduce framework: resilience-driven retraining-amount selection.

A retraining policy maps a faulty chip (its fault map) to the number of
fault-aware retraining epochs to spend on it.  The paper compares:

* :class:`ResilienceDrivenPolicy` — the proposed policy: look up the chip's
  fault rate in the resilience profile and use the epochs required to meet
  the accuracy constraint, aggregated over trials with the *max* statistic
  (Fig. 3a) or the *mean* statistic (Fig. 3b);
* :class:`FixedEpochPolicy` — the state-of-the-art baseline: retrain every
  chip for the same pre-specified number of epochs (Fig. 3c–e).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.core.chips import Chip, ChipPopulation
from repro.core.constraints import AccuracyConstraint
from repro.core.profiles import ResilienceProfile


class RetrainingPolicy:
    """Base class: decide the retraining amount for each chip."""

    name: str = "policy"

    def epochs_for_chip(self, chip: Chip) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def epochs_for_population(self, population: ChipPopulation) -> Dict[str, float]:
        """Retraining amounts for every chip, keyed by chip id."""
        return {chip.chip_id: self.epochs_for_chip(chip) for chip in population}

    def describe(self) -> str:
        return self.name


@dataclasses.dataclass
class FixedEpochPolicy(RetrainingPolicy):
    """Retrain every chip for the same fixed number of epochs (baseline)."""

    epochs: float
    name: str = "fixed"

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        self.name = f"fixed-{self.epochs:g}ep"

    def epochs_for_chip(self, chip: Chip) -> float:
        return float(self.epochs)

    def describe(self) -> str:
        return f"fixed policy: {self.epochs:g} epochs per chip"


@dataclasses.dataclass
class ResilienceDrivenPolicy(RetrainingPolicy):
    """The Reduce policy: per-chip retraining amount from the resilience profile.

    Parameters
    ----------
    profile:
        Resilience profile produced by Step 1.
    constraint:
        User-defined accuracy constraint (absolute or relative to clean).
    statistic:
        Aggregation over the profile's fault-map trials.  The paper proposes
        ``"max"`` (high confidence of meeting the constraint) and shows that
        ``"mean"`` leads to under-training.
    interpolation:
        How requirements at neighbouring grid fault rates are combined for a
        chip whose fault rate falls between grid points (default: take the
        larger requirement).
    margin_epochs:
        Optional safety margin added to every selected amount.
    """

    profile: ResilienceProfile
    constraint: AccuracyConstraint
    statistic: str = "max"
    interpolation: str = "ceil"
    margin_epochs: float = 0.0
    name: str = "reduce"

    def __post_init__(self) -> None:
        if self.margin_epochs < 0:
            raise ValueError("margin_epochs must be non-negative")
        self.name = f"reduce-{self.statistic}"
        # Resolve the constraint once against the profile's clean accuracy.
        self._target_accuracy = self.constraint.resolve(self.profile.clean_accuracy)

    @property
    def target_accuracy(self) -> float:
        """The resolved (absolute) accuracy threshold used for selection."""
        return self._target_accuracy

    def epochs_for_chip(self, chip: Chip) -> float:
        required = self.profile.epochs_required(
            fault_rate=chip.fault_rate,
            target_accuracy=self._target_accuracy,
            statistic=self.statistic,
            interpolation=self.interpolation,
        )
        return float(required) + self.margin_epochs

    def describe(self) -> str:
        return (
            f"resilience-driven policy (statistic={self.statistic}, "
            f"target={self._target_accuracy:.2%}, margin={self.margin_epochs:g})"
        )
