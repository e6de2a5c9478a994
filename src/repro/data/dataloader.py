"""Mini-batch loader converting dataset samples into tensors.

The loader is deliberately simple (single process, in-memory) but matches the
PyTorch ``DataLoader`` semantics the paper's training loops rely on:
shuffling per epoch and deterministic seeding.  Every dataset the commands
build is a :class:`~repro.data.dataset.TensorDataset`, so a batch is one
fancy-index into its arrays.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.data.dataset import TensorDataset
from repro.nn.tensor import DEFAULT_DTYPE, Tensor
from repro.utils.rng import SeedLike, new_rng


class DataLoader:
    """Iterate over a dataset in mini-batches of ``(Tensor, ndarray)`` pairs."""

    def __init__(
        self,
        dataset: TensorDataset,
        batch_size: int = 32,
        shuffle: bool = False,
        seed: SeedLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = new_rng(seed)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def __iter__(self) -> Iterator[Tuple[Tensor, np.ndarray]]:
        inputs, targets = self.dataset.arrays()
        n = len(inputs)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch_indices = order[start:start + self.batch_size]
            yield (
                Tensor(np.ascontiguousarray(inputs[batch_indices], dtype=DEFAULT_DTYPE)),
                np.asarray(targets[batch_indices]),
            )
