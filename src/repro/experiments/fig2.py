"""Runners reproducing Fig. 2 of the paper (resilience trends).

* Fig. 2a — accuracy vs fault rate for several fixed retraining amounts
  (including "no retraining" and a tiny fractional amount).
* Fig. 2b — number of retraining epochs required to reach each target
  accuracy as a function of fault rate, with min/mean/max over the
  fault-map trials (the error bars of the paper).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.ascii_plot import line_plot
from repro.core.profiles import ResilienceProfile
from repro.core.resilience import ResilienceAnalyzer, ResilienceConfig
from repro.experiments.common import ExperimentContext
from repro.utils.logging import get_logger

logger = get_logger("experiments.fig2")


# ---------------------------------------------------------------------------
# Fig. 2a
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Fig2aResult:
    """Accuracy-vs-fault-rate curves at fixed retraining amounts."""

    fault_rates: np.ndarray
    retraining_amounts: np.ndarray  # includes 0.0 ("no retraining")
    mean_accuracy: np.ndarray  # (amounts, rates)
    min_accuracy: np.ndarray
    max_accuracy: np.ndarray
    clean_accuracy: float
    profile: ResilienceProfile

    def curve(self, epochs: float) -> np.ndarray:
        """Mean-accuracy curve for the retraining amount closest to ``epochs``."""
        index = int(np.argmin(np.abs(self.retraining_amounts - epochs)))
        return self.mean_accuracy[index]

    def series(self) -> Dict[str, np.ndarray]:
        labels = {}
        for index, amount in enumerate(self.retraining_amounts):
            label = "no retraining" if amount == 0 else f"{amount:g} epochs"
            labels[label] = self.mean_accuracy[index]
        return labels

    def rows(self) -> List[Dict[str, float]]:
        """Flat rows (one per curve point) for tabular output."""
        rows = []
        for index, amount in enumerate(self.retraining_amounts):
            for rate_index, rate in enumerate(self.fault_rates):
                rows.append(
                    {
                        "retraining_epochs": float(amount),
                        "fault_rate": float(rate),
                        "mean_accuracy": float(self.mean_accuracy[index, rate_index]),
                        "min_accuracy": float(self.min_accuracy[index, rate_index]),
                        "max_accuracy": float(self.max_accuracy[index, rate_index]),
                    }
                )
        return rows

    def render(self) -> str:
        return line_plot(
            self.fault_rates,
            {name: values for name, values in self.series().items()},
            title="Fig. 2a analogue: accuracy vs fault rate at fixed retraining amounts",
            x_label="fault rate",
            y_label="accuracy",
        )


def run_fig2a(
    context: ExperimentContext,
    fault_rates: Optional[Sequence[float]] = None,
    retraining_amounts: Optional[Sequence[float]] = None,
    trials_per_rate: Optional[int] = None,
) -> Fig2aResult:
    """Reproduce Fig. 2a on the given experiment context.

    The retraining amounts default to the preset's ``fig2a_epochs`` (the
    paper uses 0, 0.05, 5 and 10 epochs); 0 epochs ("no retraining") is always
    included because the profile records the post-FAP accuracy.
    """
    preset = context.preset
    rates = tuple(fault_rates if fault_rates is not None else preset.fig2a_fault_rates)
    amounts = tuple(retraining_amounts if retraining_amounts is not None else preset.fig2a_epochs)
    trials = trials_per_rate if trials_per_rate is not None else preset.trials_per_rate

    config = ResilienceConfig(
        fault_rates=rates,
        epoch_checkpoints=tuple(sorted(set(float(a) for a in amounts if a > 0))),
        trials_per_rate=trials,
        training=preset.retraining,
        seed=preset.seed,
    )
    analyzer = ResilienceAnalyzer(
        context.model, context.pretrained_state, context.bundle, context.array, config,
        eval_pipeline=context.eval_pipeline,
    )
    profile = analyzer.run()

    all_amounts = np.asarray(sorted(set([0.0] + [float(a) for a in amounts])), dtype=float)
    mean = np.stack([profile.accuracy_vs_fault_rate(a, "mean") for a in all_amounts])
    minimum = np.stack([profile.accuracy_vs_fault_rate(a, "min") for a in all_amounts])
    maximum = np.stack([profile.accuracy_vs_fault_rate(a, "max") for a in all_amounts])
    return Fig2aResult(
        fault_rates=np.asarray(rates, dtype=float),
        retraining_amounts=all_amounts,
        mean_accuracy=mean,
        min_accuracy=minimum,
        max_accuracy=maximum,
        clean_accuracy=profile.clean_accuracy,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# Fig. 2b
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Fig2bResult:
    """Epochs required to reach each target accuracy, vs fault rate."""

    fault_rates: np.ndarray
    target_accuracies: np.ndarray
    mean_epochs: np.ndarray  # (targets, rates)
    min_epochs: np.ndarray
    max_epochs: np.ndarray
    clean_accuracy: float
    profile: ResilienceProfile

    def series(self, statistic: str = "max") -> Dict[str, np.ndarray]:
        source = {"mean": self.mean_epochs, "min": self.min_epochs, "max": self.max_epochs}[statistic]
        return {
            f"target {target:.1%}": source[index]
            for index, target in enumerate(self.target_accuracies)
        }

    def rows(self) -> List[Dict[str, float]]:
        rows = []
        for index, target in enumerate(self.target_accuracies):
            for rate_index, rate in enumerate(self.fault_rates):
                rows.append(
                    {
                        "target_accuracy": float(target),
                        "fault_rate": float(rate),
                        "mean_epochs": float(self.mean_epochs[index, rate_index]),
                        "min_epochs": float(self.min_epochs[index, rate_index]),
                        "max_epochs": float(self.max_epochs[index, rate_index]),
                    }
                )
        return rows

    def render(self) -> str:
        return line_plot(
            self.fault_rates,
            {name: values for name, values in self.series("max").items()},
            title="Fig. 2b analogue: retraining epochs required vs fault rate (max over trials)",
            x_label="fault rate",
            y_label="epochs required",
        )


def run_fig2b(
    context: ExperimentContext,
    accuracy_drops: Optional[Sequence[float]] = None,
    profile: Optional[ResilienceProfile] = None,
) -> Fig2bResult:
    """Reproduce Fig. 2b from the context's resilience profile.

    ``accuracy_drops`` are target accuracies expressed as drops from the clean
    accuracy (the paper's absolute 90/91/92 % targets correspond to roughly
    3/2/1 points below VGG11's clean accuracy on CIFAR-10).
    """
    preset = context.preset
    drops = tuple(accuracy_drops if accuracy_drops is not None else preset.fig2b_accuracy_drops)
    resolved_profile = profile if profile is not None else context.resilience_profile()
    targets = np.asarray(
        [max(0.0, resolved_profile.clean_accuracy - drop) for drop in drops], dtype=float
    )

    def curves(statistic: str) -> np.ndarray:
        return np.stack(
            [
                np.asarray(
                    resolved_profile.epochs_required_curve(target, statistic=statistic),
                    dtype=float,
                )
                for target in targets
            ]
        )

    return Fig2bResult(
        fault_rates=np.asarray(resolved_profile.fault_rates, dtype=float),
        target_accuracies=targets,
        mean_epochs=curves("mean"),
        min_epochs=curves("min"),
        max_epochs=curves("max"),
        clean_accuracy=resolved_profile.clean_accuracy,
        profile=resolved_profile,
    )
