"""Multi-layer perceptron models (used for fast experiments and tests)."""

from __future__ import annotations

from typing import Sequence

from repro import nn
from repro.utils.rng import SeedLike, derive_seed


class MLP(nn.Module):
    """A configurable fully-connected classifier.

    The MLP is the fastest workload on which the full Reduce pipeline runs;
    its linear layers map directly onto the systolic array (one GEMM each),
    making it the default model for unit and integration tests.  Image
    inputs are flattened by the first layer.
    """

    def __init__(
        self,
        input_features: int,
        num_classes: int,
        hidden_sizes: Sequence[int] = (128, 64),
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if input_features <= 0:
            raise ValueError("input_features must be positive")
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self.input_features = input_features
        self.num_classes = num_classes
        self.hidden_sizes = tuple(hidden_sizes)

        base_seed = seed if isinstance(seed, int) else 0
        layers = []
        previous = input_features
        for index, hidden in enumerate(self.hidden_sizes):
            if hidden <= 0:
                raise ValueError("hidden sizes must be positive")
            layers.append(nn.Linear(previous, hidden, rng=derive_seed(base_seed, "linear", index)))
            layers.append(nn.ReLU())
            previous = hidden
        layers.append(nn.Linear(previous, num_classes, rng=derive_seed(base_seed, "head")))
        self.body = nn.Sequential(*layers)

    def extra_repr(self) -> str:
        return (
            f"input_features={self.input_features}, hidden_sizes={self.hidden_sizes}, "
            f"num_classes={self.num_classes}"
        )
