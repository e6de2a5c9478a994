"""Training configuration, histories, evaluation and fault-mask helpers.

The training loop itself is :class:`~repro.accelerator.batched.BatchedFaultTrainer`;
:class:`Trainer` runs it on one model in place.  Together they serve

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
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.accelerator.batched import BatchedFaultTrainer
from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, derive_seed

logger = get_logger("training")

MaskDict = Dict[str, np.ndarray]


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

    def accuracy_at(self, epochs: float, tolerance: float = 1e-9, strict: bool = False) -> float:
        """Accuracy recorded at the checkpoint closest to ``epochs``.

        The closest checkpoint is accepted when it lies within
        ``max(tolerance, 25% of the requested amount)``; a match farther away
        than that is almost certainly a caller error (asking a history for an
        epoch amount it never evaluated), so it raises with ``strict=True``
        and is logged at WARNING level otherwise instead of being silently
        returned as if it were the requested checkpoint.
        """
        if not self.records:
            raise ValueError("history is empty")
        best = min(self.records, key=lambda record: abs(record.epochs - epochs))
        window = max(tolerance, 0.25 * max(epochs, 1e-9))
        if abs(best.epochs - epochs) > window:
            message = (
                f"accuracy_at({epochs}): nearest recorded checkpoint is {best.epochs} "
                f"epochs (off by {abs(best.epochs - epochs):.6g}, tolerance {window:.6g}); "
                f"recorded checkpoints: {self.epochs}"
            )
            if strict:
                raise ValueError(message)
            logger.warning(message)
        return best.eval_accuracy

    def epochs_to_reach(self, target_accuracy: float) -> Optional[float]:
        """Smallest checkpoint epoch amount whose accuracy meets the target."""
        for record in self.records:
            if meets_target(record.eval_accuracy, target_accuracy):
                return record.epochs
        return None

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "epochs": self.epochs,
            "accuracy": self.accuracies,
            "train_loss": [record.train_loss for record in self.records],
        }


def _as_loader(
    data: Union[Dataset, DataLoader],
    batch_size: int,
    shuffle: bool,
    seed: SeedLike,
) -> DataLoader:
    if isinstance(data, DataLoader):
        return data
    return DataLoader(data, batch_size=batch_size, shuffle=shuffle, seed=seed)


def require_nonempty_train_loader(loader: DataLoader) -> DataLoader:
    """Reject loaders that yield no batches (they would hang training loops).

    An empty loader (empty dataset, or ``drop_last`` with fewer samples than
    a batch) makes a ``while remaining > 0`` step loop spin forever around a
    zero-batch iterator; both trainers fail loudly at construction instead.
    """
    if len(loader) == 0:
        raise ValueError(
            "train loader yields no batches "
            f"({loader.num_samples} samples, batch_size={loader.batch_size}, "
            f"drop_last={loader.drop_last}); "
            "training requires at least one batch per epoch"
        )
    return loader


def _as_eval_loader(data: Union[Dataset, DataLoader], batch_size: int) -> DataLoader:
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
        return DataLoader(
            data.dataset,
            batch_size=data.batch_size,
            shuffle=False,
            drop_last=data.drop_last,
        )
    return DataLoader(data, batch_size=batch_size, shuffle=False, seed=0)


def evaluate_accuracy(
    model: nn.Module,
    data: Union[Dataset, DataLoader],
    batch_size: int = 128,
) -> float:
    """Top-1 accuracy of ``model`` on ``data`` (model mode is restored)."""
    loader = _as_eval_loader(data, batch_size=batch_size)
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    with nn.no_grad():
        for inputs, targets in loader:
            logits = model(inputs)
            predictions = logits.data.argmax(axis=-1)
            correct += int((predictions == np.asarray(targets)).sum())
            total += len(targets)
    if was_training:
        model.train()
    return correct / total if total else 0.0


def evaluate_loss(
    model: nn.Module,
    data: Union[Dataset, DataLoader],
    batch_size: int = 128,
) -> float:
    """Mean cross-entropy loss of ``model`` on ``data``."""
    loader = _as_eval_loader(data, batch_size=batch_size)
    was_training = model.training
    model.eval()
    total_loss = 0.0
    total = 0
    with nn.no_grad():
        for inputs, targets in loader:
            loss = F.cross_entropy(model(inputs), targets, reduction="sum")
            total_loss += loss.item()
            total += len(targets)
    if was_training:
        model.train()
    return total_loss / total if total else 0.0


@dataclasses.dataclass
class MaskedParameter:
    """One weight tensor with its fault mask, resolved to the live parameter.

    ``keep`` is the float32 multiplicative complement of the boolean mask
    (1.0 = trainable, 0.0 = clamped); multiplying by it in place enforces the
    mask without boolean fancy-indexing or temporary allocations.
    """

    name: str
    weight: nn.Tensor
    mask: np.ndarray
    keep: np.ndarray

    def enforce_weight(self) -> None:
        np.multiply(self.weight.data, self.keep, out=self.weight.data)


def _resolve_masked_weight(model_modules: Dict[str, nn.Module], name: str, mask: np.ndarray):
    """Look up and validate the weight tensor a mask applies to."""
    if name not in model_modules:
        raise KeyError(f"mask refers to unknown layer {name!r}")
    weight = getattr(model_modules[name], "weight", None)
    if weight is None:
        raise ValueError(f"layer {name!r} has no weight to mask")
    if mask.shape != weight.data.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match weight shape {weight.data.shape} for layer {name!r}"
        )
    return weight


def resolve_masked_parameters(
    model: nn.Module, masks: Optional[MaskDict]
) -> List[MaskedParameter]:
    """Resolve mask names to live weight tensors once (hot loops reuse this).

    Validates exactly like the per-call path: unknown layer names and shape
    mismatches raise immediately rather than mid-training.
    """
    if not masks:
        return []
    modules = dict(model.named_modules())
    resolved: List[MaskedParameter] = []
    for name, mask in masks.items():
        weight = _resolve_masked_weight(modules, name, mask)
        keep = np.where(mask, np.float32(0.0), np.float32(1.0))
        resolved.append(MaskedParameter(name=name, weight=weight, mask=mask, keep=keep))
    return resolved


def apply_weight_masks(model: nn.Module, masks: Optional[MaskDict]) -> None:
    """Zero out the weights selected by ``masks`` (True = forced to zero)."""
    if not masks:
        return
    modules = dict(model.named_modules())
    for name, mask in masks.items():
        weight = _resolve_masked_weight(modules, name, mask)
        weight.data[mask] = 0.0


def enforce_weight_masks(model: nn.Module, masks: Optional[MaskDict]) -> List[MaskedParameter]:
    """Clamp masked weights through the keep-multiplier enforcement path.

    The one shared pruning primitive: resolves the masks exactly like the
    trainers (:func:`resolve_masked_parameters`) and enforces them with the
    same in-place float32 keep-multiplies the per-step hot loops use, so
    pruning applied here can never drift from mask enforcement during FAT.
    Returns the resolved parameters for callers that keep enforcing.
    """
    resolved = resolve_masked_parameters(model, masks)
    for masked in resolved:
        masked.enforce_weight()
    return resolved


def seed_stochastic_layers(model: nn.Module, seed: SeedLike) -> int:
    """Reseed every stochastic layer (dropout) from a derived per-layer seed.

    Without this, dropout layers constructed without an explicit ``rng`` draw
    from an unseeded generator and two otherwise-identical training runs
    diverge.  Returns the number of layers reseeded.
    """
    base = int(seed) if isinstance(seed, (int, np.integer)) else 0
    reseeded = 0
    for name, module in model.named_modules():
        reseed = getattr(module, "reseed", None)
        if callable(reseed):
            reseed(derive_seed(base, "dropout", name))
            reseeded += 1
    return reseeded


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
    """Trainer of one model in place: a :class:`BatchedFaultTrainer` stack of one.

    The stacked trainer is the one training loop; this wrapper trains a
    single chip (``masks``, or none for pre-training) and keeps ``model``
    holding that chip's weights: the masked starting weights after
    construction and the trained weights after every :meth:`train`.  The
    stack, not the model, carries the training state (weights, optimizer and
    batch-norm statistics) from one :meth:`train` call to the next.
    """

    def __init__(
        self,
        model: nn.Module,
        train_data: Union[Dataset, DataLoader],
        eval_data: Union[Dataset, DataLoader],
        config: Optional[TrainingConfig] = None,
        masks: Optional[MaskDict] = None,
    ) -> None:
        self.model = model
        self._stack = BatchedFaultTrainer(model, [masks or {}], train_data, eval_data, config)
        self.config = self._stack.config
        self.train_loader = self._stack._train_loaders[0]
        self.batches_per_epoch = self._stack.batches_per_epoch
        self._write_back()

    @property
    def steps_taken(self) -> int:
        return self._stack.steps_taken

    @property
    def epochs_taken(self) -> float:
        return self._stack.epochs_taken

    def _write_back(self) -> None:
        self.model.load_state_dict(self._stack.chip_state_dict(0))

    def evaluate(self) -> float:
        return self._stack.evaluate()[0]

    def train(
        self,
        epochs: float,
        eval_checkpoints: Optional[Sequence[float]] = None,
        include_initial: bool = True,
    ) -> TrainingHistory:
        """Train for ``epochs``; the history of :meth:`BatchedFaultTrainer.train`."""
        history = self._stack.train(epochs, eval_checkpoints, include_initial)[0]
        self._write_back()
        return history
