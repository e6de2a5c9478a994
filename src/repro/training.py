"""Training configuration, histories and evaluation.

The training loop itself is :class:`~repro.accelerator.batched.BatchedFaultTrainer`,
which trains a stack of chips, each under its own fault masks;
:class:`Trainer` runs it on one unmasked model in place.  Together they serve

* pre-training the clean reference model (the "pre-trained DNN" input of the
  Reduce framework),
* fault-aware retraining (FAT), where a per-layer boolean mask keeps the
  weights mapped onto faulty PEs clamped at zero, and
* resilience analysis, which needs accuracy measured at several *fractional*
  epoch checkpoints (the paper evaluates retraining amounts as small as
  0.05 epochs) within a single progressive training run.

Epochs are accounted in fractions of a pass over the training set: an epoch
amount ``e`` corresponds to ``round(e * batches_per_epoch)`` optimizer steps.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

from repro import nn
from repro.data.dataloader import DataLoader
from repro.data.dataset import TensorDataset
from repro.utils.rng import SeedLike


def meets_target(accuracy, target_accuracy):
    """Whether ``accuracy`` meets ``target_accuracy`` (elementwise on arrays).

    The one "meets the target" rule of the package.  A relative target is a
    float difference (``clean - drop``) that may round above an accuracy
    equal to it on paper, so the comparison allows ``1e-12`` of slack.
    """
    return accuracy >= target_accuracy - 1e-12


@dataclasses.dataclass
class TrainingConfig:
    """Hyper-parameters of the (re)training loop."""

    optimizer: str = "sgd"
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    grad_clip: Optional[float] = 5.0
    label_smoothing: float = 0.0
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in ("sgd", "adam", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def build_optimizer(self, parameters) -> nn.Optimizer:
        if self.optimizer == "sgd":
            return nn.SGD(
                parameters,
                lr=self.learning_rate,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
            )
        if self.optimizer == "adam":
            return nn.Adam(parameters, lr=self.learning_rate, weight_decay=self.weight_decay)
        return nn.AdamW(parameters, lr=self.learning_rate, weight_decay=self.weight_decay)


@dataclasses.dataclass(frozen=True)
class CheckpointRecord:
    """Metrics captured at one evaluation checkpoint during (re)training."""

    epochs: float
    steps: int
    train_loss: float
    eval_accuracy: float


@dataclasses.dataclass
class TrainingHistory:
    """Progressive accuracy-vs-retraining-amount curve of one training run."""

    records: List[CheckpointRecord] = dataclasses.field(default_factory=list)

    def add(self, record: CheckpointRecord) -> None:
        self.records.append(record)

    @property
    def epochs(self) -> List[float]:
        return [record.epochs for record in self.records]

    @property
    def accuracies(self) -> List[float]:
        return [record.eval_accuracy for record in self.records]

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].eval_accuracy

    @property
    def total_epochs(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].epochs


def _as_loader(
    data: Union[TensorDataset, DataLoader],
    batch_size: int,
    shuffle: bool,
    seed: SeedLike,
) -> DataLoader:
    if isinstance(data, DataLoader):
        return data
    return DataLoader(data, batch_size=batch_size, shuffle=shuffle, seed=seed)


def require_nonempty_train_loader(loader: DataLoader) -> DataLoader:
    """Reject loaders that yield no batches (they would hang training loops).

    An empty loader (an empty dataset) makes a ``while remaining > 0`` step
    loop spin forever around a zero-batch iterator; both trainers fail loudly
    at construction instead.
    """
    if len(loader) == 0:
        raise ValueError(
            "train loader yields no batches "
            f"({loader.num_samples} samples, batch_size={loader.batch_size}); "
            "training requires at least one batch per epoch"
        )
    return loader


def _as_eval_loader(data: Union[TensorDataset, DataLoader], batch_size: int) -> DataLoader:
    """A deterministic, unshuffled view of ``data`` for evaluation.

    A caller-supplied *shuffled* loader is never iterated directly: every
    iteration would draw a permutation from its generator, so evaluating
    mid-training with the training loader (or any loader sharing its RNG)
    would silently change the order of all subsequent training batches.  The
    evaluation instead walks the same dataset unshuffled, which consumes no
    random state and is order-independent for the metrics computed here.
    """
    if isinstance(data, DataLoader):
        if not data.shuffle:
            return data
        return DataLoader(data.dataset, batch_size=data.batch_size, shuffle=False)
    return DataLoader(data, batch_size=batch_size, shuffle=False, seed=0)


def evaluate_accuracy(
    model: nn.Module,
    data: Union[TensorDataset, DataLoader],
    batch_size: int = 128,
) -> float:
    """Top-1 accuracy of ``model`` on ``data``: a one-chip stacked eval pass.

    The unmasked stack of one runs the same layer program as every chip
    evaluation, in ``batch_size`` batches; the model is not modified.  An
    empty ``data`` has accuracy 0.0.
    """
    from repro.accelerator.batched import evaluate_chip_accuracies

    config = TrainingConfig(batch_size=batch_size)
    return evaluate_chip_accuracies(model, data, [{}], config=config)[0]


def epochs_to_steps(epochs: float, batches_per_epoch: int) -> int:
    """Convert a (possibly fractional) epoch amount into optimizer steps."""
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if batches_per_epoch <= 0:
        raise ValueError("batches_per_epoch must be positive")
    if epochs == 0:
        return 0
    steps = int(round(epochs * batches_per_epoch))
    return max(steps, 1)


class Trainer:
    """Trainer of one unmasked model in place: a :class:`BatchedFaultTrainer` stack of one.

    The stacked trainer is the one training loop; this wrapper pre-trains a
    single model and keeps ``model`` holding the trained weights after every
    :meth:`train`.  The stack, not the model, carries the training state
    (weights and optimizer) from one :meth:`train` call to the next.  Chips
    with fault masks train as a :class:`BatchedFaultTrainer` stack directly.
    """

    def __init__(
        self,
        model: nn.Module,
        train_data: Union[TensorDataset, DataLoader],
        eval_data: Union[TensorDataset, DataLoader],
        config: Optional[TrainingConfig] = None,
    ) -> None:
        from repro.accelerator.batched import BatchedFaultTrainer

        self.model = model
        self._stack = BatchedFaultTrainer(model, [{}], train_data, eval_data, config)

    def train(
        self,
        epochs: float,
        eval_checkpoints: Optional[Sequence[float]] = None,
        include_initial: bool = True,
    ) -> TrainingHistory:
        """Train for ``epochs``; the history of :meth:`BatchedFaultTrainer.train`."""
        history = self._stack.train(epochs, eval_checkpoints, include_initial)[0]
        self.model.load_state_dict(self._stack.chip_state_dict(0))
        return history
