"""Step 1 of the Reduce framework: resilience analysis.

The analyzer measures how the accuracy of the given pre-trained DNN degrades
under permanent faults at different fault rates, and how quickly fault-aware
retraining recovers it.  For every fault rate in a grid it samples several
random fault maps (trials), applies fault-aware pruning, and retrains the
model *progressively*, recording accuracy at a set of epoch checkpoints
(including very small fractional amounts, e.g. 0.05 epochs as in Fig. 2a of
the paper).  The result is a :class:`~repro.core.profiles.ResilienceProfile`.

Every trial is the pre-trained DNN under one fault map's masks, so the grid
runs on the stacked :class:`~repro.accelerator.batched.BatchedFaultTrainer`
in stacks of :data:`TRIAL_STACK` cells.  Each trial keeps its own seed (its
own mini-batch order) through the trainer's per-chip data streams, so the
profile is bit-identical to retraining the cells one at a time through the
serial reference loop (``tests/helpers.py``: ``serial_resilience_accuracies``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.fault_models import FaultModel, RandomFaultModel
from repro.accelerator.mapping import model_fault_masks
from repro.accelerator.systolic_array import SystolicArray
from repro.core.profiles import ResilienceProfile
from repro.data.synthetic import DatasetBundle
from repro.nn.serialization import clone_state_dict
from repro.training import TrainingConfig, evaluate_accuracy
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # annotations only: reading a ResilienceConfig loads no trainer
    from repro.accelerator.batched import EvalPipeline

logger = get_logger("core.resilience")

# Grid cells retrained together in one stacked trainer.  Per-chip data
# streams fold every cell's own batch from the input on, so the shared
# first-layer lowering is lost and memory grows by about 3 MB per stacked
# cell on the fast preset.  Measured there (one BLAS thread), the
# tracemalloc peak of Step 1 is 12.4 MB at 4 cells per stack, 18.5 MB at 6
# and 24.5 MB at 8, against 6.5 MB at one cell per stack.  Each training
# step frees its graph before the next one starts, and no test-set lowering
# outlives its eval batch, so Step 1 leaves nothing resident for triage and
# Step 3.
TRIAL_STACK = 4


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
    """Runs the fault-injection + progressive-retraining grid of Step 1.

    ``eval_pipeline`` supplies the compute backend of the checkpoint
    evaluations (eager when ``None``).
    """

    def __init__(
        self,
        model: nn.Module,
        pretrained_state: Dict[str, np.ndarray],
        bundle: DatasetBundle,
        array: SystolicArray,
        config: Optional[ResilienceConfig] = None,
        eval_pipeline: Optional[EvalPipeline] = None,
    ) -> None:
        self.model = model
        self.pretrained_state = clone_state_dict(pretrained_state)
        self.bundle = bundle
        self.array = array
        self.config = config if config is not None else ResilienceConfig()
        self.eval_pipeline = eval_pipeline

    def _restore_pretrained(self) -> None:
        self.model.load_state_dict(self.pretrained_state)

    def _trial_fault_map(self, fault_rate: float, trial_index: int) -> Tuple[int, FaultMap]:
        """The (seed, fault map) pair of one trial, derived deterministically."""
        config = self.config
        trial_seed = derive_seed(config.seed, "trial", f"{fault_rate:.6f}", trial_index)
        rng = np.random.default_rng(trial_seed)
        fault_map = config.fault_model.sample(self.array.rows, self.array.cols, fault_rate, rng)
        return trial_seed, fault_map

    def _train_cells(self, cells: Sequence[Tuple[float, int]]) -> List[List[float]]:
        """Accuracies at [0.0] + epoch_checkpoints of each (rate, trial) cell.

        The cells retrain as one stacked run, each under its own trial seed
        and fault map, starting from the pre-trained weights.
        """
        from repro.accelerator.batched import BatchedFaultTrainer

        config = self.config
        seeds: List[int] = []
        mask_sets = []
        self._restore_pretrained()
        for fault_rate, trial_index in cells:
            trial_seed, fault_map = self._trial_fault_map(fault_rate, trial_index)
            seeds.append(trial_seed)
            mask_sets.append(model_fault_masks(self.model, fault_map))
        trainer = BatchedFaultTrainer(
            self.model,
            mask_sets,
            self.bundle.train,
            self.bundle.test,
            config=config.training,
            eval_pipeline=self.eval_pipeline,
            seeds=seeds,
        )
        histories = trainer.train(
            config.max_epochs,
            eval_checkpoints=list(config.epoch_checkpoints),
            include_initial=True,
        )
        return [history.accuracies for history in histories]

    def run(self, progress: bool = False) -> ResilienceProfile:
        """Execute the full grid and return the resilience profile."""
        config = self.config
        self._restore_pretrained()
        clean_accuracy = evaluate_accuracy(self.model, self.bundle.test)

        checkpoints = [0.0] + [float(c) for c in config.epoch_checkpoints]
        accuracies = np.zeros(
            (len(config.fault_rates), config.trials_per_rate, len(checkpoints)), dtype=float
        )
        # A fault rate of exactly zero is deterministic: no faults, no
        # retraining effect; trials would waste work, so evaluate once.
        grid = []
        for rate_index, fault_rate in enumerate(config.fault_rates):
            if fault_rate == 0.0:
                accuracies[rate_index, :, :] = clean_accuracy
            else:
                grid.extend((rate_index, fault_rate, t) for t in range(config.trials_per_rate))
        for start in range(0, len(grid), TRIAL_STACK):
            stack = grid[start:start + TRIAL_STACK]
            results = self._train_cells([(rate, trial) for _, rate, trial in stack])
            for (rate_index, fault_rate, trial_index), trial_accuracies in zip(stack, results):
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
