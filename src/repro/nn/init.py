"""Weight initialisation schemes.

All initialisers take an explicit :class:`numpy.random.Generator` so that
model construction is fully reproducible — resilience analysis and per-chip
retraining depend on starting from exactly the same pre-trained weights.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.nn.tensor import DEFAULT_DTYPE


def _fan_in_fan_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fan for a scalar parameter")
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    # Convolution weights (out_channels, in_channels, kh, kw).
    receptive_field = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive_field
    fan_out = shape[0] * receptive_field
    return fan_in, fan_out


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (used for conv biases)."""
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def uniform(shape: Tuple[int, ...], low: float, high: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform initialisation in ``[low, high)``."""
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    return rng.uniform(low, high, size=shape).astype(DEFAULT_DTYPE)


def normal(shape: Tuple[int, ...], mean: float, std: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian initialisation."""
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    return (rng.standard_normal(shape) * std + mean).astype(DEFAULT_DTYPE)


def kaiming_uniform(
    shape: Tuple[int, ...],
    rng: np.random.Generator,
    a: float = math.sqrt(5.0),
    mode: str = "fan_in",
) -> np.ndarray:
    """He/Kaiming uniform initialisation (PyTorch's default for conv/linear)."""
    fan_in, fan_out = _fan_in_fan_out(shape)
    fan = fan_in if mode == "fan_in" else fan_out
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan)
    return uniform(shape, -bound, bound, rng)


def kaiming_normal(
    shape: Tuple[int, ...],
    rng: np.random.Generator,
    mode: str = "fan_out",
    nonlinearity: str = "relu",
) -> np.ndarray:
    """He/Kaiming normal initialisation (used for VGG conv layers)."""
    fan_in, fan_out = _fan_in_fan_out(shape)
    fan = fan_in if mode == "fan_in" else fan_out
    gain = math.sqrt(2.0) if nonlinearity == "relu" else 1.0
    std = gain / math.sqrt(fan)
    return normal(shape, 0.0, std, rng)


def bias_uniform_for(weight_shape: Tuple[int, ...], bias_shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias initialisation: uniform in ``±1/sqrt(fan_in)``."""
    fan_in, _ = _fan_in_fan_out(weight_shape)
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return uniform(bias_shape, -bound, bound, rng)
