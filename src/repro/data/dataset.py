"""Dataset abstractions (map-style, in-memory).

Datasets return ``(input, target)`` pairs as numpy arrays; batching into
:class:`~repro.nn.tensor.Tensor` objects happens in the
:class:`~repro.data.dataloader.DataLoader`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


class Dataset:
    """Abstract map-style dataset."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def num_classes(self) -> int:
        """Number of target classes; subclasses with labels should override."""
        raise NotImplementedError(f"{type(self).__name__} does not define num_classes")


class TensorDataset(Dataset):
    """Dataset wrapping pre-computed input and target arrays."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray) -> None:
        inputs = np.asarray(inputs)
        targets = np.asarray(targets)
        if len(inputs) != len(targets):
            raise ValueError(
                f"inputs ({len(inputs)}) and targets ({len(targets)}) must have the same length"
            )
        self.inputs = inputs
        self.targets = targets

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.targets[index]

    @property
    def num_classes(self) -> int:
        if self.targets.dtype.kind in "iu":
            return int(self.targets.max()) + 1 if len(self.targets) else 0
        raise ValueError("num_classes is only defined for integer targets")

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the underlying ``(inputs, targets)`` arrays."""
        return self.inputs, self.targets


class Subset(Dataset):
    """View of a dataset restricted to a list of indices."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= len(dataset)):
            raise IndexError("subset indices out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.dataset[int(self.indices[index])]

    @property
    def num_classes(self) -> int:
        return self.dataset.num_classes


class TransformedDataset(Dataset):
    """Apply a transform to the inputs of an underlying dataset."""

    def __init__(self, dataset: Dataset, transform: Callable[[np.ndarray], np.ndarray]) -> None:
        self.dataset = dataset
        self.transform = transform

    def __len__(self) -> int:
        return len(self.dataset)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        x, y = self.dataset[index]
        return self.transform(x), y

    @property
    def num_classes(self) -> int:
        return self.dataset.num_classes


def random_split(
    dataset: Dataset, fractions: Sequence[float], seed: SeedLike = None
) -> List[Subset]:
    """Randomly split a dataset into subsets with the given fractions.

    The last subset absorbs rounding remainders so that every sample is used.
    """
    rng = new_rng(seed)
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must be non-empty")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-6:
        raise ValueError(f"fractions must sum to 1.0, got {sum(fractions)}")
    n = len(dataset)
    order = rng.permutation(n)
    sizes = [int(round(f * n)) for f in fractions]
    sizes[-1] = n - sum(sizes[:-1])
    if sizes[-1] < 0:
        raise ValueError("rounding produced a negative split size; adjust fractions")
    subsets: List[Subset] = []
    start = 0
    for size in sizes:
        subsets.append(Subset(dataset, order[start:start + size]))
        start += size
    return subsets


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: SeedLike = None
) -> Tuple[Subset, Subset]:
    """Split into train/test subsets preserving per-class proportions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = new_rng(seed)
    targets = np.asarray([int(np.asarray(dataset[i][1])) for i in range(len(dataset))])
    train_indices: List[int] = []
    test_indices: List[int] = []
    for label in np.unique(targets):
        label_indices = np.flatnonzero(targets == label)
        label_indices = rng.permutation(label_indices)
        n_test = max(1, int(round(test_fraction * len(label_indices))))
        test_indices.extend(label_indices[:n_test].tolist())
        train_indices.extend(label_indices[n_test:].tolist())
    return Subset(dataset, sorted(train_indices)), Subset(dataset, sorted(test_indices))
