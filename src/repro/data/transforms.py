"""Input transforms (normalisation and light augmentation).

Transforms operate on single samples shaped ``(C, H, W)`` (images) or ``(F,)``
(feature vectors) and are composable with :class:`Compose`.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng

Transform = Callable[[np.ndarray], np.ndarray]


class Compose:
    """Apply a sequence of transforms in order."""

    def __init__(self, transforms: Sequence[Transform]) -> None:
        self.transforms = list(transforms)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            x = transform(x)
        return x

    def __repr__(self) -> str:
        inner = ", ".join(type(t).__name__ for t in self.transforms)
        return f"Compose([{inner}])"


class Normalize:
    """Channel-wise normalisation ``(x - mean) / std`` for CHW images."""

    def __init__(self, mean: Sequence[float], std: Sequence[float]) -> None:
        self.mean = np.asarray(mean, dtype=np.float32).reshape(-1, 1, 1)
        self.std = np.asarray(std, dtype=np.float32).reshape(-1, 1, 1)
        if np.any(self.std == 0):
            raise ValueError("std must be non-zero")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


class RandomHorizontalFlip:
    """Flip a CHW image horizontally with probability ``p``."""

    def __init__(self, p: float = 0.5, seed: SeedLike = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self._rng = new_rng(seed)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._rng.random() < self.p:
            return np.ascontiguousarray(x[..., ::-1])
        return x


class RandomCrop:
    """Randomly crop a CHW image after zero-padding the borders."""

    def __init__(self, size: int, padding: int = 0, seed: SeedLike = None) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.padding = padding
        self._rng = new_rng(seed)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.padding:
            x = np.pad(x, ((0, 0), (self.padding, self.padding), (self.padding, self.padding)))
        _, h, w = x.shape
        if h < self.size or w < self.size:
            raise ValueError(f"image ({h}x{w}) smaller than crop size {self.size}")
        top = int(self._rng.integers(0, h - self.size + 1))
        left = int(self._rng.integers(0, w - self.size + 1))
        return np.ascontiguousarray(x[:, top:top + self.size, left:left + self.size])


class GaussianNoise:
    """Add zero-mean Gaussian noise (simple augmentation / robustness probe)."""

    def __init__(self, std: float, seed: SeedLike = None) -> None:
        if std < 0:
            raise ValueError("std must be non-negative")
        self.std = std
        self._rng = new_rng(seed)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.std == 0:
            return x
        return (x + self._rng.normal(0.0, self.std, size=x.shape)).astype(x.dtype)


class ToFloat32:
    """Cast inputs to float32 (the library's default dtype)."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float32)


def channel_statistics(images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of an ``(N, C, H, W)`` image array."""
    images = np.asarray(images)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, C, H, W) array, got shape {images.shape}")
    mean = images.mean(axis=(0, 2, 3))
    std = images.std(axis=(0, 2, 3))
    return mean, std
