"""Resilience profiles (the output of Step 1 of the Reduce framework).

A :class:`ResilienceProfile` stores, for a grid of fault rates and retraining
amounts (epoch checkpoints) and a number of random fault-map trials per rate,
the accuracy the model reached.  From it one can read

* the accuracy-vs-fault-rate curves at fixed retraining amounts (Fig. 2a),
* the epochs-needed-vs-fault-rate curves for a target accuracy, with
  min/mean/max statistics over trials (Fig. 2b), and
* — through :mod:`repro.core.selection` — the retraining amount to use for a
  chip with a given fault rate (Step 2).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.training import meets_target

STATISTICS = ("min", "mean", "max", "median")


def _require_statistic(statistic: str) -> str:
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {STATISTICS}")
    return statistic


@dataclasses.dataclass
class ResilienceProfile:
    """Accuracy grid over (fault rate, trial, retraining amount).

    ``accuracies[i, t, j]`` is the accuracy at fault rate ``fault_rates[i]``,
    fault-map trial ``t`` and retraining amount ``epoch_checkpoints[j]``.
    ``epoch_checkpoints`` always starts at 0.0 (no retraining).
    """

    fault_rates: np.ndarray
    epoch_checkpoints: np.ndarray
    accuracies: np.ndarray
    clean_accuracy: float
    metadata: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.fault_rates = np.asarray(self.fault_rates, dtype=float)
        self.epoch_checkpoints = np.asarray(self.epoch_checkpoints, dtype=float)
        self.accuracies = np.asarray(self.accuracies, dtype=float)
        if self.fault_rates.ndim != 1 or self.epoch_checkpoints.ndim != 1:
            raise ValueError("fault_rates and epoch_checkpoints must be 1-D")
        if np.any(np.diff(self.fault_rates) < 0) or np.any(np.diff(self.epoch_checkpoints) < 0):
            raise ValueError("fault_rates and epoch_checkpoints must be sorted ascending")
        expected = (len(self.fault_rates), self.accuracies.shape[1] if self.accuracies.ndim == 3 else 0, len(self.epoch_checkpoints))
        if self.accuracies.ndim != 3 or self.accuracies.shape[0] != expected[0] or self.accuracies.shape[2] != expected[2]:
            raise ValueError(
                f"accuracies must have shape (rates, trials, checkpoints); got {self.accuracies.shape}"
            )
        if not 0.0 <= self.clean_accuracy <= 1.0:
            raise ValueError("clean_accuracy must be in [0, 1]")

    # -- basic views -----------------------------------------------------------

    @property
    def num_trials(self) -> int:
        return self.accuracies.shape[1]

    @property
    def max_epochs(self) -> float:
        return float(self.epoch_checkpoints[-1])

    def accuracy_vs_fault_rate(self, epochs: float, statistic: str = "mean") -> np.ndarray:
        """Accuracy at each fault rate for a given retraining amount (Fig. 2a)."""
        _require_statistic(statistic)
        column = int(np.argmin(np.abs(self.epoch_checkpoints - epochs)))
        values = self.accuracies[:, :, column]
        return getattr(np, statistic)(values, axis=1)

    def accuracy_surface(self, statistic: str = "mean") -> np.ndarray:
        """``(rates, checkpoints)`` accuracy grid aggregated over trials."""
        _require_statistic(statistic)
        return getattr(np, statistic)(self.accuracies, axis=1)

    # -- epochs required -----------------------------------------------------------

    def _trial_epochs_required(self, rate_index: int, trial_index: int, target: float) -> Optional[float]:
        accuracy_curve = self.accuracies[rate_index, trial_index]
        meets = np.flatnonzero(meets_target(accuracy_curve, target))
        if meets.size == 0:
            return None
        return float(self.epoch_checkpoints[meets[0]])

    def epochs_required_trials(self, rate_index: int, target_accuracy: float) -> List[Optional[float]]:
        """Per-trial retraining amounts needed at one grid fault rate."""
        if not 0 <= rate_index < len(self.fault_rates):
            raise IndexError(f"rate_index {rate_index} out of range")
        return [
            self._trial_epochs_required(rate_index, trial, target_accuracy)
            for trial in range(self.num_trials)
        ]

    def epochs_required_at_grid_rate(
        self,
        rate_index: int,
        target_accuracy: float,
        statistic: str = "max",
        unreachable: str = "max_epochs",
    ) -> Optional[float]:
        """Aggregate retraining amount needed at one grid fault rate.

        ``statistic`` follows the paper: ``"max"`` over trials gives high
        confidence of meeting the constraint (the proposed policy), ``"mean"``
        risks under-training (Fig. 3b), ``"min"`` is optimistic.

        ``unreachable`` controls what happens when a trial never reached the
        target within the analysed epoch budget: ``"max_epochs"`` substitutes
        the largest analysed amount (conservative but finite), ``"none"``
        propagates ``None``.
        """
        _require_statistic(statistic)
        if unreachable not in ("max_epochs", "none"):
            raise ValueError(f"unknown unreachable policy {unreachable!r}")
        trials = self.epochs_required_trials(rate_index, target_accuracy)
        if any(value is None for value in trials):
            if unreachable == "none":
                return None
            trials = [self.max_epochs if value is None else value for value in trials]
        values = np.asarray(trials, dtype=float)
        return float(getattr(np, statistic)(values))

    def epochs_required_curve(
        self,
        target_accuracy: float,
        statistic: str = "max",
        unreachable: str = "max_epochs",
    ) -> List[Optional[float]]:
        """Epochs needed at every grid fault rate (one line of Fig. 2b)."""
        return [
            self.epochs_required_at_grid_rate(index, target_accuracy, statistic, unreachable)
            for index in range(len(self.fault_rates))
        ]

    def epochs_required(
        self,
        fault_rate: float,
        target_accuracy: float,
        statistic: str = "max",
        interpolation: str = "ceil",
        unreachable: str = "max_epochs",
    ) -> float:
        """Retraining amount for an arbitrary (off-grid) fault rate.

        ``interpolation`` controls how the two neighbouring grid rates are
        combined: ``"ceil"`` (default) takes the larger requirement
        (conservative), ``"linear"`` interpolates linearly, ``"floor"`` takes
        the smaller requirement.
        """
        if fault_rate < 0 or fault_rate > 1:
            raise ValueError("fault_rate must be in [0, 1]")
        if interpolation not in ("ceil", "linear", "floor"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        rates = self.fault_rates
        if fault_rate <= rates[0]:
            low = high = 0
            weight = 0.0
        elif fault_rate >= rates[-1]:
            low = high = len(rates) - 1
            weight = 0.0
        else:
            high = int(np.searchsorted(rates, fault_rate, side="left"))
            low = high - 1
            span = rates[high] - rates[low]
            weight = 0.0 if span == 0 else (fault_rate - rates[low]) / span

        low_req = self.epochs_required_at_grid_rate(low, target_accuracy, statistic, unreachable)
        high_req = self.epochs_required_at_grid_rate(high, target_accuracy, statistic, unreachable)
        if low_req is None or high_req is None:
            candidates = [value for value in (low_req, high_req) if value is not None]
            return float(candidates[0]) if len(candidates) == 1 else float(self.max_epochs)
        if interpolation == "ceil":
            return float(max(low_req, high_req))
        if interpolation == "floor":
            return float(min(low_req, high_req))
        return float((1.0 - weight) * low_req + weight * high_req)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault_rates": self.fault_rates.tolist(),
            "epoch_checkpoints": self.epoch_checkpoints.tolist(),
            "accuracies": self.accuracies.tolist(),
            "clean_accuracy": self.clean_accuracy,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResilienceProfile":
        return cls(
            fault_rates=np.asarray(data["fault_rates"], dtype=float),
            epoch_checkpoints=np.asarray(data["epoch_checkpoints"], dtype=float),
            accuracies=np.asarray(data["accuracies"], dtype=float),
            clean_accuracy=float(data["clean_accuracy"]),
            metadata=dict(data.get("metadata", {})),
        )

    def __repr__(self) -> str:
        return (
            f"ResilienceProfile(rates={len(self.fault_rates)}, trials={self.num_trials}, "
            f"checkpoints={len(self.epoch_checkpoints)}, clean={self.clean_accuracy:.3f})"
        )


def save_profile(profile: ResilienceProfile, path) -> None:
    """Persist a resilience profile as JSON (Step 1 is the expensive step —
    saving it lets Step 2/3 be re-run for new chip batches without repeating it)."""
    from repro.utils.config import save_json

    save_json(profile.to_dict(), path)


def load_profile(path) -> ResilienceProfile:
    """Load a resilience profile previously written by :func:`save_profile`."""
    from repro.utils.config import load_json

    return ResilienceProfile.from_dict(load_json(path))
