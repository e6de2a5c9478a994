"""Experiment presets.

A preset bundles every knob needed to reproduce the paper's figures at a
chosen computational scale:

* ``smoke``  — seconds; used by unit/integration tests of the runners.
* ``fast``   — tens of seconds; the default for the benchmark harness.
* ``paper``  — the faithful configuration (VGG11-style network, 256x256
  array, 5 trials per fault rate, 100 chips); a cold ``fig3`` run takes
  about 265 s on a 2-CPU machine.

All presets run the *same code path*; only model width, dataset size, grid
resolution and chip count change.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence, Tuple

from repro.core.constraints import AccuracyConstraint
from repro.core.resilience import ResilienceConfig
from repro.training import TrainingConfig


@dataclasses.dataclass
class DatasetSpec:
    """Synthetic-dataset parameters (CIFAR-10 stand-in)."""

    num_classes: int = 10
    train_per_class: int = 64
    test_per_class: int = 32
    image_size: int = 16
    channels: int = 3
    noise_std: float = 0.25
    shift_pixels: int = 1
    seed: int = 7


@dataclasses.dataclass
class ModelSpec:
    """Model architecture parameters (see :mod:`repro.models.registry`)."""

    name: str = "lenet5"
    kwargs: Dict[str, object] = dataclasses.field(default_factory=dict)
    seed: int = 11


@dataclasses.dataclass
class ExperimentPreset:
    """Everything needed to instantiate an experiment context."""

    name: str
    dataset: DatasetSpec
    model: ModelSpec
    array_rows: int = 256
    array_cols: int = 256
    pretrain_epochs: float = 8.0
    pretrain: TrainingConfig = dataclasses.field(default_factory=TrainingConfig)
    retraining: TrainingConfig = dataclasses.field(
        default_factory=lambda: TrainingConfig(learning_rate=0.02)
    )
    # Resilience grid (Step 1).
    fault_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
    epoch_checkpoints: Sequence[float] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    trials_per_rate: int = 5
    # Fig. 2a retraining amounts (accuracy-vs-fault-rate curves).
    fig2a_fault_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    fig2a_epochs: Sequence[float] = (0.05, 1.0, 2.0)
    # Fig. 2b target accuracies, expressed as drops from clean accuracy.
    fig2b_accuracy_drops: Sequence[float] = (0.03, 0.02, 0.01)
    # Fig. 3 campaign parameters.
    num_chips: int = 100
    chip_fault_rate_range: Tuple[float, float] = (0.0, 0.3)
    fixed_policy_epochs: Sequence[float] = (0.05, 0.1, 0.2)
    constraint_drop: float = 0.02
    seed: int = 0

    def resilience_config(self) -> ResilienceConfig:
        return ResilienceConfig(
            fault_rates=tuple(self.fault_rates),
            epoch_checkpoints=tuple(self.epoch_checkpoints),
            trials_per_rate=self.trials_per_rate,
            training=self.retraining,
            seed=self.seed,
        )

    def constraint(self) -> AccuracyConstraint:
        return AccuracyConstraint.within_drop_of_clean(self.constraint_drop)


def smoke_preset() -> ExperimentPreset:
    """Minimal preset for unit tests of the experiment runners (seconds)."""
    return ExperimentPreset(
        name="smoke",
        dataset=DatasetSpec(
            num_classes=4,
            train_per_class=24,
            test_per_class=16,
            image_size=8,
            channels=2,
            noise_std=0.25,
            shift_pixels=0,
        ),
        model=ModelSpec(name="mlp", kwargs={"hidden_sizes": (48,)}),
        array_rows=16,
        array_cols=16,
        pretrain_epochs=4.0,
        pretrain=TrainingConfig(learning_rate=0.1, batch_size=32, weight_decay=1e-4),
        retraining=TrainingConfig(learning_rate=0.05, batch_size=32, weight_decay=1e-4),
        fault_rates=(0.0, 0.1, 0.3),
        epoch_checkpoints=(0.25, 1.0),
        trials_per_rate=2,
        fig2a_fault_rates=(0.0, 0.2, 0.4),
        fig2a_epochs=(0.25, 1.0),
        fig2b_accuracy_drops=(0.05, 0.02),
        num_chips=6,
        chip_fault_rate_range=(0.0, 0.25),
        fixed_policy_epochs=(0.25, 1.0),
        constraint_drop=0.05,
        seed=0,
    )


def fast_preset() -> ExperimentPreset:
    """Benchmark-scale preset (tens of seconds end to end).

    Calibrated so that the resilience curves have the paper's shape: the
    clean accuracy is ~95 %, accuracy degrades markedly beyond ~20 % fault
    rate without retraining, and the retraining amount needed to return to
    within the constraint grows with the fault rate.
    """
    return ExperimentPreset(
        name="fast",
        dataset=DatasetSpec(
            num_classes=10,
            train_per_class=40,
            test_per_class=20,
            image_size=12,
            channels=3,
            noise_std=0.60,
            shift_pixels=1,
        ),
        model=ModelSpec(name="lenet5", kwargs={}),
        array_rows=64,
        array_cols=64,
        pretrain_epochs=12.0,
        pretrain=TrainingConfig(learning_rate=0.08, batch_size=40, weight_decay=1e-4),
        retraining=TrainingConfig(learning_rate=0.04, batch_size=40, weight_decay=1e-4),
        fault_rates=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4),
        epoch_checkpoints=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0),
        trials_per_rate=3,
        fig2a_fault_rates=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
        fig2a_epochs=(0.05, 0.5, 2.0),
        fig2b_accuracy_drops=(0.04, 0.02, 0.01),
        num_chips=24,
        chip_fault_rate_range=(0.0, 0.3),
        fixed_policy_epochs=(0.05, 0.25, 1.0),
        constraint_drop=0.02,
        seed=0,
    )


def paper_preset() -> ExperimentPreset:
    """Faithful configuration: VGG11 plan, 256x256 array, 5 trials, 100 chips.

    With the numpy training substrate a cold ``fig3`` run (pre-training,
    Step 1 and 100 chips) takes about 265 s on a 2-CPU machine; all figure
    runners accept any preset, so the shape of every result can be verified
    with ``fast_preset`` first.
    """
    return ExperimentPreset(
        name="paper",
        dataset=DatasetSpec(
            num_classes=10,
            train_per_class=64,
            test_per_class=32,
            image_size=16,
            channels=3,
            noise_std=0.50,
            shift_pixels=1,
        ),
        model=ModelSpec(name="vgg11", kwargs={"width_multiplier": 0.25}),
        array_rows=256,
        array_cols=256,
        pretrain_epochs=15.0,
        pretrain=TrainingConfig(learning_rate=0.05, batch_size=32, weight_decay=5e-4),
        retraining=TrainingConfig(learning_rate=0.02, batch_size=32, weight_decay=5e-4),
        fault_rates=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5),
        epoch_checkpoints=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0),
        trials_per_rate=5,
        fig2a_fault_rates=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
        fig2a_epochs=(0.05, 2.0, 5.0),
        fig2b_accuracy_drops=(0.03, 0.02, 0.01),
        num_chips=100,
        chip_fault_rate_range=(0.0, 0.25),
        fixed_policy_epochs=(0.05, 0.2, 0.5),
        constraint_drop=0.02,
        seed=0,
    )


_PRESETS = {
    "smoke": smoke_preset,
    "fast": fast_preset,
    "paper": paper_preset,
}


def get_preset(name: str) -> ExperimentPreset:
    """Look up a preset by name (``smoke``, ``fast`` or ``paper``)."""
    key = name.lower()
    if key not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}")
    return _PRESETS[key]()
