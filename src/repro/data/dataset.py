"""The in-memory dataset every command builds.

A :class:`TensorDataset` holds pre-computed input and target arrays;
batching into :class:`~repro.nn.tensor.Tensor` objects happens in the
:class:`~repro.data.dataloader.DataLoader`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class TensorDataset:
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

    @property
    def num_classes(self) -> int:
        if self.targets.dtype.kind in "iu":
            return int(self.targets.max()) + 1 if len(self.targets) else 0
        raise ValueError("num_classes is only defined for integer targets")

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the underlying ``(inputs, targets)`` arrays."""
        return self.inputs, self.targets
