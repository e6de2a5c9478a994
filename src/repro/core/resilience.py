"""Step 1 of the Reduce framework: resilience analysis.

The analyzer measures how the accuracy of the given pre-trained DNN degrades
under permanent faults at different fault rates, and how quickly fault-aware
retraining recovers it.  For every fault rate in a grid it samples several
random fault maps (trials), applies fault-aware pruning, and retrains the
model *progressively*, recording accuracy at a set of epoch checkpoints
(including very small fractional amounts, e.g. 0.05 epochs as in Fig. 2a of
the paper).  The result is a :class:`~repro.core.profiles.ResilienceProfile`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.accelerator.batched import evaluate_chip_accuracies
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.fault_models import FaultModel, RandomFaultModel
from repro.accelerator.systolic_array import SystolicArray
from repro.core.profiles import ResilienceProfile
from repro.data.synthetic import DatasetBundle
from repro.mitigation.fap import build_fap_masks
from repro.nn.serialization import clone_state_dict
from repro.training import Trainer, TrainingConfig, evaluate_accuracy
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("core.resilience")


@dataclasses.dataclass
class ResilienceConfig:
    """Configuration of the resilience-analysis grid.

    Defaults mirror the paper's evaluation: fault rates from 0 to 0.5, five
    fault-map trials per rate, and retraining amounts spanning fractional to
    multiple epochs.
    """

    fault_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
    epoch_checkpoints: Sequence[float] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    trials_per_rate: int = 5
    fault_model: FaultModel = dataclasses.field(default_factory=RandomFaultModel)
    training: TrainingConfig = dataclasses.field(default_factory=TrainingConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        rates = list(self.fault_rates)
        if not rates:
            raise ValueError("fault_rates must be non-empty")
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ValueError("fault rates must be in [0, 1]")
        if sorted(rates) != rates:
            raise ValueError("fault_rates must be sorted ascending")
        checkpoints = list(self.epoch_checkpoints)
        if not checkpoints:
            raise ValueError("epoch_checkpoints must be non-empty")
        if any(c <= 0 for c in checkpoints):
            raise ValueError("epoch_checkpoints must be positive (0.0 is recorded automatically)")
        if sorted(checkpoints) != checkpoints:
            raise ValueError("epoch_checkpoints must be sorted ascending")
        if self.trials_per_rate <= 0:
            raise ValueError("trials_per_rate must be positive")

    @property
    def max_epochs(self) -> float:
        return float(list(self.epoch_checkpoints)[-1])


class ResilienceAnalyzer:
    """Runs the fault-injection + progressive-retraining grid of Step 1."""

    def __init__(
        self,
        model: nn.Module,
        pretrained_state: Dict[str, np.ndarray],
        bundle: DatasetBundle,
        array: SystolicArray,
        config: Optional[ResilienceConfig] = None,
    ) -> None:
        self.model = model
        self.pretrained_state = clone_state_dict(pretrained_state)
        self.bundle = bundle
        self.array = array
        self.config = config if config is not None else ResilienceConfig()

    def _restore_pretrained(self) -> None:
        self.model.load_state_dict(self.pretrained_state)

    def _trial_fault_map(self, fault_rate: float, trial_index: int) -> Tuple[int, FaultMap]:
        """The (seed, fault map) pair of one trial, derived deterministically."""
        config = self.config
        trial_seed = derive_seed(config.seed, "trial", f"{fault_rate:.6f}", trial_index)
        rng = np.random.default_rng(trial_seed)
        fault_map = config.fault_model.sample(self.array.rows, self.array.cols, fault_rate, rng)
        return trial_seed, fault_map

    def _initial_accuracies(self, fault_maps: Sequence[FaultMap], chip_chunk: int = 16) -> List[float]:
        """Zero-epoch accuracy of every trial's masked model, batched.

        All trials start from the same pre-trained weights and differ only in
        their fault masks, so their 0.0-epoch checkpoints are B masked
        variants of one evaluation — exactly the stacked eval forward of
        :func:`~repro.accelerator.batched.evaluate_chip_accuracies`, at the
        serial trainers' eval batch size.  Masks are built (and released)
        chunk by chunk to bound peak memory.
        """
        accuracies: List[float] = []
        self._restore_pretrained()
        for start in range(0, len(fault_maps), chip_chunk):
            mask_sets = [
                build_fap_masks(self.model, fault_map)
                for fault_map in fault_maps[start:start + chip_chunk]
            ]
            accuracies.extend(
                evaluate_chip_accuracies(
                    self.model, self.bundle.test, mask_sets, self.config.training,
                    chip_chunk=chip_chunk,
                )
            )
        return accuracies

    def _run_trial(
        self,
        fault_rate: float,
        trial_index: int,
        fault_map: Optional[FaultMap] = None,
        initial_accuracy: Optional[float] = None,
    ) -> List[float]:
        """Accuracies at [0.0] + epoch_checkpoints for one random fault map."""
        config = self.config
        trial_seed = derive_seed(config.seed, "trial", f"{fault_rate:.6f}", trial_index)
        if fault_map is None:
            _, fault_map = self._trial_fault_map(fault_rate, trial_index)

        self._restore_pretrained()
        masks = build_fap_masks(self.model, fault_map)
        training_config = dataclasses.replace(config.training, seed=trial_seed)
        trainer = Trainer(
            self.model,
            self.bundle.train,
            self.bundle.test,
            config=training_config,
            masks=masks,
        )
        if initial_accuracy is None:
            history = trainer.train(
                epochs=config.max_epochs,
                eval_checkpoints=list(config.epoch_checkpoints),
                include_initial=True,
            )
            return history.accuracies
        history = trainer.train(
            epochs=config.max_epochs,
            eval_checkpoints=list(config.epoch_checkpoints),
            include_initial=False,
        )
        return [initial_accuracy] + history.accuracies

    def run(self, progress: bool = False) -> ResilienceProfile:
        """Execute the full grid and return the resilience profile."""
        config = self.config
        self._restore_pretrained()
        clean_accuracy = evaluate_accuracy(self.model, self.bundle.test)

        checkpoints = [0.0] + [float(c) for c in config.epoch_checkpoints]
        accuracies = np.zeros(
            (len(config.fault_rates), config.trials_per_rate, len(checkpoints)), dtype=float
        )
        # Derive every trial's fault map up front, then evaluate all their
        # 0.0-epoch checkpoints in batched multi-chip sweeps; the progressive
        # retraining below skips its (serial) initial evaluation.
        trial_grid = [
            (rate_index, fault_rate, trial_index)
            for rate_index, fault_rate in enumerate(config.fault_rates)
            if fault_rate != 0.0
            for trial_index in range(config.trials_per_rate)
        ]
        trial_maps = [
            self._trial_fault_map(fault_rate, trial_index)[1]
            for _, fault_rate, trial_index in trial_grid
        ]
        initial = self._initial_accuracies(trial_maps)
        for rate_index, fault_rate in enumerate(config.fault_rates):
            # A fault rate of exactly zero is deterministic: no faults, no
            # retraining effect; trials would waste work, so evaluate once.
            if fault_rate == 0.0:
                accuracies[rate_index, :, :] = clean_accuracy
        for (rate_index, fault_rate, trial_index), fault_map, initial_accuracy in zip(
            trial_grid, trial_maps, initial
        ):
            trial_accuracies = self._run_trial(
                fault_rate, trial_index, fault_map=fault_map, initial_accuracy=initial_accuracy
            )
            if len(trial_accuracies) != len(checkpoints):
                raise RuntimeError(
                    "trial returned an unexpected number of checkpoints: "
                    f"{len(trial_accuracies)} vs {len(checkpoints)}"
                )
            accuracies[rate_index, trial_index, :] = trial_accuracies
            if progress:
                logger.info(
                    "resilience: rate=%.3f trial=%d final_acc=%.3f",
                    fault_rate,
                    trial_index,
                    trial_accuracies[-1],
                )
        # Leave the model in its pre-trained state for downstream users.
        self._restore_pretrained()
        return ResilienceProfile(
            fault_rates=np.asarray(config.fault_rates, dtype=float),
            epoch_checkpoints=np.asarray(checkpoints, dtype=float),
            accuracies=accuracies,
            clean_accuracy=clean_accuracy,
            metadata={
                "trials_per_rate": config.trials_per_rate,
                "fault_model": config.fault_model.name,
                "array_rows": self.array.rows,
                "array_cols": self.array.cols,
                "dataset": self.bundle.name,
                "seed": config.seed,
            },
        )


def analyze_resilience(
    model: nn.Module,
    pretrained_state: Dict[str, np.ndarray],
    bundle: DatasetBundle,
    array: SystolicArray,
    config: Optional[ResilienceConfig] = None,
) -> ResilienceProfile:
    """Convenience wrapper building a :class:`ResilienceAnalyzer` and running it."""
    return ResilienceAnalyzer(model, pretrained_state, bundle, array, config).run()
