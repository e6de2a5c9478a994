"""Fault-Aware Pruning (FAP), after Zhang et al. (VTS 2018).

FAP exploits the intrinsic resilience of DNNs to pruning: a faulty PE's MAC
is bypassed in hardware, which is functionally equivalent to forcing every
weight mapped onto that PE to zero.  The accelerator keeps its full
throughput (unlike row/column bypass) at the cost of some accuracy loss —
which Fault-Aware Training (:mod:`repro.mitigation.fat`) then recovers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro import nn
from repro.accelerator.mapping import masked_weight_fraction, model_fault_masks
from repro.training import enforce_weight_masks

MaskDict = Dict[str, np.ndarray]


@dataclasses.dataclass(frozen=True)
class FapResult:
    """Outcome of applying fault-aware pruning to a model."""

    masks: MaskDict
    masked_fraction: float
    per_layer_fraction: Dict[str, float]


def build_fap_masks(
    model: nn.Module,
    fault_map_or_array,
    column_permutations: Optional[Dict[str, np.ndarray]] = None,
) -> MaskDict:
    """Per-layer boolean masks (True = weight mapped onto a faulty PE)."""
    return model_fault_masks(model, fault_map_or_array, column_permutations)


def apply_fap(
    model: nn.Module,
    fault_map_or_array,
    column_permutations: Optional[Dict[str, np.ndarray]] = None,
) -> FapResult:
    """Apply fault-aware pruning to ``model`` in place.

    The weights selected by the fault map are zeroed and the masks are
    returned so that fault-aware training can keep them clamped at zero.
    Masks are resolved and enforced through the same construction-time
    :func:`~repro.training.resolve_masked_parameters` path (in-place float32
    keep-multipliers) the serial and batched trainers use, so pruning here
    and mask enforcement during FAT are bit-identical and cannot drift.
    """
    masks = build_fap_masks(model, fault_map_or_array, column_permutations)
    enforce_weight_masks(model, masks)
    per_layer = {
        name: (float(mask.sum()) / mask.size if mask.size else 0.0) for name, mask in masks.items()
    }
    return FapResult(
        masks=masks,
        masked_fraction=masked_weight_fraction(masks),
        per_layer_fraction=per_layer,
    )
