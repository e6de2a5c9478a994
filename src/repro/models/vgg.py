"""VGG models (the paper's evaluation network is VGG11 on CIFAR-10).

The layer plan follows the original VGG configurations (Simonyan & Zisserman,
2015) with the common CIFAR adaptation of a single-hidden-layer classifier.
A ``width_multiplier`` scales every channel count so the same architecture
can be exercised at laptop-scale cost; at
``width_multiplier=1.0`` the convolutional plan matches standard VGG11/13/16.

Max-pool stages that would shrink the feature map below 1x1 for small inputs
are skipped automatically, which keeps the architecture valid for the
down-scaled synthetic images used in the fast experiment presets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro import nn
from repro.utils.rng import SeedLike, derive_seed

# 'M' denotes a 2x2 max-pooling stage.
VGG_CONFIGS: Dict[str, List[Union[int, str]]] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"],
}


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
        batch_norm: bool = True,
        classifier_hidden: int = 512,
        dropout: float = 0.0,
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
        self.batch_norm = batch_norm
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
                    bias=not batch_norm,
                    rng=derive_seed(base_seed, "conv", conv_index),
                )
            )
            if batch_norm:
                layers.append(nn.BatchNorm2d(out_channels))
            layers.append(nn.ReLU())
            in_channels = out_channels
            conv_index += 1
        self.features = nn.Sequential(*layers)
        self.final_channels = in_channels
        self.final_spatial = spatial

        hidden = _scaled(classifier_hidden, width_multiplier)
        classifier_layers: List[nn.Module] = [nn.Flatten()]
        flat_features = in_channels * spatial * spatial
        classifier_layers.append(
            nn.Linear(flat_features, hidden, rng=derive_seed(base_seed, "fc1"))
        )
        classifier_layers.append(nn.ReLU())
        if dropout > 0:
            classifier_layers.append(nn.Dropout(dropout, rng=derive_seed(base_seed, "drop1")))
        classifier_layers.append(
            nn.Linear(hidden, num_classes, rng=derive_seed(base_seed, "fc2"))
        )
        self.classifier = nn.Sequential(*classifier_layers)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.classifier(self.features(x))

    def extra_repr(self) -> str:
        return (
            f"name={self.name}, input_shape={self.input_shape}, num_classes={self.num_classes}, "
            f"width_multiplier={self.width_multiplier}, batch_norm={self.batch_norm}"
        )


def _make_vgg(
    config_name: str,
    input_shape: Tuple[int, int, int],
    num_classes: int,
    width_multiplier: float,
    batch_norm: bool,
    dropout: float,
    seed: SeedLike,
) -> VGG:
    return VGG(
        VGG_CONFIGS[config_name],
        input_shape=input_shape,
        num_classes=num_classes,
        width_multiplier=width_multiplier,
        batch_norm=batch_norm,
        dropout=dropout,
        seed=seed,
        name=config_name,
    )


def vgg11(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    batch_norm: bool = True,
    dropout: float = 0.0,
    seed: SeedLike = 0,
) -> VGG:
    """VGG11 — the network evaluated in the paper (Fig. 2 and Fig. 3)."""
    return _make_vgg("vgg11", input_shape, num_classes, width_multiplier, batch_norm, dropout, seed)


def vgg13(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    batch_norm: bool = True,
    dropout: float = 0.0,
    seed: SeedLike = 0,
) -> VGG:
    return _make_vgg("vgg13", input_shape, num_classes, width_multiplier, batch_norm, dropout, seed)


def vgg16(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    batch_norm: bool = True,
    dropout: float = 0.0,
    seed: SeedLike = 0,
) -> VGG:
    return _make_vgg("vgg16", input_shape, num_classes, width_multiplier, batch_norm, dropout, seed)


def vgg11_mini(
    input_shape: Tuple[int, int, int] = (3, 16, 16),
    num_classes: int = 10,
    width_multiplier: float = 0.125,
    seed: SeedLike = 0,
) -> VGG:
    """A width-scaled VGG11 used by the fast experiment presets.

    The layer plan (number of conv stages, pooling schedule, classifier depth)
    is identical to VGG11; only channel counts are scaled by
    ``width_multiplier`` so that resilience analysis over many fault maps runs
    in seconds on a CPU.
    """
    model = _make_vgg("vgg11", input_shape, num_classes, width_multiplier, True, 0.0, seed)
    model.name = "vgg11_mini"
    return model
