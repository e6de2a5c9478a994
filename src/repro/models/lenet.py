"""LeNet-5 style convolutional network (medium-cost workload)."""

from __future__ import annotations

from typing import Tuple

from repro import nn
from repro.utils.rng import SeedLike, derive_seed


class LeNet5(nn.Module):
    """A LeNet-5 variant adapted to arbitrary input sizes and channel counts.

    Compared with the classic LeNet-5 (designed for 32x32 grey-scale MNIST),
    the classifier input size is computed from the actual feature-map size so
    that the model works on the synthetic image datasets of any resolution.
    """

    def __init__(
        self,
        input_shape: Tuple[int, int, int] = (3, 32, 32),
        num_classes: int = 10,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if len(input_shape) != 3:
            raise ValueError(f"input_shape must be (C, H, W), got {input_shape}")
        channels, height, width = input_shape
        if height < 12 or width < 12:
            raise ValueError("LeNet5 requires inputs of at least 12x12 pixels")
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        base_seed = seed if isinstance(seed, int) else 0

        self.features = nn.Sequential(
            nn.Conv2d(channels, 6, kernel_size=5, padding=2, rng=derive_seed(base_seed, "conv1")),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(6, 16, kernel_size=5, rng=derive_seed(base_seed, "conv2")),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        feature_height = ((height // 2) - 4) // 2
        feature_width = ((width // 2) - 4) // 2
        flat_features = 16 * feature_height * feature_width
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(flat_features, 120, rng=derive_seed(base_seed, "fc1")),
            nn.ReLU(),
            nn.Linear(120, 84, rng=derive_seed(base_seed, "fc2")),
            nn.ReLU(),
            nn.Linear(84, num_classes, rng=derive_seed(base_seed, "fc3")),
        )

    def extra_repr(self) -> str:
        return f"input_shape={self.input_shape}, num_classes={self.num_classes}"
