"""Weight-saliency metrics used by fault-aware mapping (SalvageDNN).

Saliency estimates how much a weight (or a group of weights) contributes to
the network's function; fault-aware mapping steers the *least* salient
weights onto faulty PEs so that zeroing them costs the least accuracy.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro import nn
from repro.accelerator.mapping import weight_matrix_view

SaliencyFn = Callable[[np.ndarray], np.ndarray]


def magnitude_saliency(weight_matrix: np.ndarray) -> np.ndarray:
    """Per-weight saliency = |w| (the metric used by SalvageDNN's L1 mode)."""
    return np.abs(weight_matrix)


def squared_saliency(weight_matrix: np.ndarray) -> np.ndarray:
    """Per-weight saliency = w^2 (second-order-ish proxy)."""
    return weight_matrix * weight_matrix


_SALIENCY_METRICS: Dict[str, SaliencyFn] = {
    "magnitude": magnitude_saliency,
    "l1": magnitude_saliency,
    "squared": squared_saliency,
    "l2": squared_saliency,
}


def get_saliency_metric(name: str) -> SaliencyFn:
    """Look up a per-weight saliency metric by name."""
    key = name.lower()
    if key not in _SALIENCY_METRICS:
        raise KeyError(
            f"unknown saliency metric {name!r}; available: {', '.join(sorted(_SALIENCY_METRICS))}"
        )
    return _SALIENCY_METRICS[key]


def output_channel_saliency(
    module: nn.Module, metric: str = "magnitude"
) -> np.ndarray:
    """Total saliency of each output channel / neuron of a mappable layer.

    Returns a vector of length ``N_out``; fault-aware mapping groups output
    channels by the physical array column they land on and compares these
    totals to decide which groups to sacrifice.
    """
    saliency_fn = get_saliency_metric(metric)
    matrix = weight_matrix_view(module)  # (N_out, K)
    return saliency_fn(matrix).sum(axis=1)
