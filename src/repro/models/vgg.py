"""VGG11, the paper's evaluation network (VGG11 on CIFAR-10).

The layer plan follows the original VGG11 configuration (Simonyan &
Zisserman, 2015) with the common CIFAR adaptation of a single-hidden-layer
classifier and no batch normalisation.  A ``width_multiplier`` scales every
channel count so the same architecture can be exercised at laptop-scale cost;
at ``width_multiplier=1.0`` the convolutional plan matches standard VGG11.

Max-pool stages that would shrink the feature map below 1x1 for small inputs
are skipped automatically, which keeps the architecture valid for the
down-scaled synthetic images used in the experiment presets.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro import nn
from repro.utils.rng import SeedLike, derive_seed

# 'M' denotes a 2x2 max-pooling stage.
VGG11_CONFIG: List[Union[int, str]] = [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"]


def _scaled(channels: int, width_multiplier: float) -> int:
    return max(1, int(round(channels * width_multiplier)))


class VGG(nn.Module):
    """VGG backbone + classifier with configurable width and input size."""

    def __init__(
        self,
        config: Sequence[Union[int, str]],
        input_shape: Tuple[int, int, int] = (3, 32, 32),
        num_classes: int = 10,
        width_multiplier: float = 1.0,
        classifier_hidden: int = 512,
        seed: SeedLike = 0,
        name: str = "vgg",
    ) -> None:
        super().__init__()
        if len(input_shape) != 3:
            raise ValueError(f"input_shape must be (C, H, W), got {input_shape}")
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        self.name = name
        self.config = list(config)
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.width_multiplier = width_multiplier
        base_seed = seed if isinstance(seed, int) else 0

        channels, height, width = input_shape
        layers: List[nn.Module] = []
        spatial = min(height, width)
        in_channels = channels
        conv_index = 0
        self.skipped_pools = 0
        for item in self.config:
            if item == "M":
                if spatial // 2 < 1:
                    # Input too small for another pooling stage; skip it.
                    self.skipped_pools += 1
                    continue
                layers.append(nn.MaxPool2d(2))
                spatial //= 2
                continue
            out_channels = _scaled(int(item), width_multiplier)
            layers.append(
                nn.Conv2d(
                    in_channels,
                    out_channels,
                    kernel_size=3,
                    padding=1,
                    rng=derive_seed(base_seed, "conv", conv_index),
                )
            )
            layers.append(nn.ReLU())
            in_channels = out_channels
            conv_index += 1
        self.features = nn.Sequential(*layers)
        self.final_channels = in_channels
        self.final_spatial = spatial

        hidden = _scaled(classifier_hidden, width_multiplier)
        flat_features = in_channels * spatial * spatial
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(flat_features, hidden, rng=derive_seed(base_seed, "fc1")),
            nn.ReLU(),
            nn.Linear(hidden, num_classes, rng=derive_seed(base_seed, "fc2")),
        )

    def extra_repr(self) -> str:
        return (
            f"name={self.name}, input_shape={self.input_shape}, num_classes={self.num_classes}, "
            f"width_multiplier={self.width_multiplier}"
        )


def vgg11(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    seed: SeedLike = 0,
) -> VGG:
    """VGG11 — the network evaluated in the paper (Fig. 2 and Fig. 3)."""
    return VGG(
        VGG11_CONFIG,
        input_shape=input_shape,
        num_classes=num_classes,
        width_multiplier=width_multiplier,
        seed=seed,
        name="vgg11",
    )
