"""Synthetic classification datasets.

The original paper evaluates on CIFAR-10, which is not available in this
offline environment.  These generators produce image-classification problems
with the properties the Reduce experiments actually depend on:

* a clean model can reach high accuracy (there is head-room above the
  accuracy constraint);
* accuracy degrades *gradually* as weights are pruned / faults are injected
  (class evidence is distributed over many pixels rather than a single one);
* generation is fully deterministic given a seed, so the resilience analysis
  and the per-chip experiments see exactly the same data distribution.

Two families are provided: smooth class-template images (``ClassTemplateImages``,
the CIFAR-10 stand-in) and Gaussian blob feature vectors (for fast MLP tests).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.data.dataset import TensorDataset
from repro.utils.rng import SeedLike, derive_seed, new_rng


@dataclasses.dataclass
class DatasetBundle:
    """A train/test dataset pair plus the metadata models need to be built."""

    name: str
    train: TensorDataset
    test: TensorDataset
    num_classes: int
    input_shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_classes <= 1:
            raise ValueError("num_classes must be at least 2")

    @property
    def image_size(self) -> int:
        if len(self.input_shape) != 3:
            raise ValueError("image_size is only defined for image datasets")
        return self.input_shape[1]

    def summary(self) -> str:
        return (
            f"{self.name}: {len(self.train)} train / {len(self.test)} test samples, "
            f"{self.num_classes} classes, input shape {self.input_shape}"
        )


def _smooth_template(
    rng: np.random.Generator, channels: int, image_size: int, grid: int
) -> np.ndarray:
    """Generate a smooth random pattern by bilinear upsampling a coarse grid."""
    coarse = rng.uniform(-1.0, 1.0, size=(channels, grid, grid))
    # Bilinear upsample the coarse grid to (image_size, image_size).
    positions = np.linspace(0, grid - 1, image_size)
    low = np.floor(positions).astype(int)
    high = np.minimum(low + 1, grid - 1)
    frac = positions - low
    # Interpolate rows then columns.
    rows = coarse[:, low, :] * (1 - frac)[None, :, None] + coarse[:, high, :] * frac[None, :, None]
    template = (
        rows[:, :, low] * (1 - frac)[None, None, :] + rows[:, :, high] * frac[None, None, :]
    )
    return template.astype(np.float32)


def _generate_class_template_split(
    rng: np.random.Generator,
    templates: np.ndarray,
    samples_per_class: int,
    noise_std: float,
    shift_pixels: int,
    signal_scale: float,
) -> Tuple[np.ndarray, np.ndarray]:
    num_classes, channels, size, _ = templates.shape
    total = num_classes * samples_per_class
    inputs = np.empty((total, channels, size, size), dtype=np.float32)
    targets = np.empty(total, dtype=np.int64)
    cursor = 0
    for label in range(num_classes):
        base = templates[label] * signal_scale
        for _ in range(samples_per_class):
            sample = base.copy()
            if shift_pixels > 0:
                dy = int(rng.integers(-shift_pixels, shift_pixels + 1))
                dx = int(rng.integers(-shift_pixels, shift_pixels + 1))
                sample = np.roll(sample, (dy, dx), axis=(1, 2))
            sample = sample + rng.normal(0.0, noise_std, size=sample.shape).astype(np.float32)
            inputs[cursor] = sample
            targets[cursor] = label
            cursor += 1
    order = rng.permutation(total)
    return inputs[order], targets[order]


def make_class_template_images(
    num_classes: int = 10,
    train_per_class: int = 64,
    test_per_class: int = 32,
    image_size: int = 16,
    channels: int = 3,
    noise_std: float = 0.35,
    shift_pixels: int = 1,
    template_grid: int = 4,
    signal_scale: float = 1.0,
    seed: SeedLike = 0,
    name: str = "class-template-images",
) -> DatasetBundle:
    """Synthetic image-classification dataset (CIFAR-10 stand-in).

    Each class is defined by a smooth random template; samples are noisy,
    slightly shifted copies of their class template.  ``noise_std`` controls
    task difficulty (larger noise → lower clean accuracy), ``shift_pixels``
    adds translation variability so convolutional features matter.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if image_size < template_grid:
        raise ValueError("image_size must be >= template_grid")
    if train_per_class <= 0 or test_per_class <= 0:
        raise ValueError("train_per_class and test_per_class must be positive")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    base_seed = seed if isinstance(seed, int) else None
    rng = new_rng(seed)
    template_rng = new_rng(derive_seed(base_seed, "templates") if base_seed is not None else rng)
    templates = np.stack(
        [_smooth_template(template_rng, channels, image_size, template_grid) for _ in range(num_classes)]
    )
    train_rng = new_rng(derive_seed(base_seed, "train") if base_seed is not None else rng)
    test_rng = new_rng(derive_seed(base_seed, "test") if base_seed is not None else rng)
    train_x, train_y = _generate_class_template_split(
        train_rng, templates, train_per_class, noise_std, shift_pixels, signal_scale
    )
    test_x, test_y = _generate_class_template_split(
        test_rng, templates, test_per_class, noise_std, shift_pixels, signal_scale
    )
    return DatasetBundle(
        name=name,
        train=TensorDataset(train_x, train_y),
        test=TensorDataset(test_x, test_y),
        num_classes=num_classes,
        input_shape=(channels, image_size, image_size),
    )
