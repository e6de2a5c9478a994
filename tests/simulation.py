"""Functional simulation of GEMMs executed on a faulty systolic array.

This module closes the loop between the *model-side* view of fault-aware
pruning (boolean weight masks produced by :mod:`repro.accelerator.mapping`)
and the *hardware-side* behaviour it stands for: a PE whose MAC is bypassed
contributes zero to every partial sum it would have produced.

``simulate_gemm_on_array`` executes ``activations @ weights`` the way the
faulty array would (weight-stationary mapping, bypassed MACs contribute 0),
so tests can verify that running the FAP-masked model in software is exactly
equivalent to running the original model on the faulty hardware.  It is the
reference ``tests/test_simulation.py`` compares against; no command runs it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.mapping import gemm_fault_mask, layer_gemm_shape, mappable_layers
from repro.accelerator.systolic_array import SystolicArray


def simulate_gemm_on_array(
    activations: np.ndarray,
    weight_matrix: np.ndarray,
    fault_map: FaultMap,
    column_permutation: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Compute ``activations @ weight_matrix.T`` on a faulty array.

    ``activations`` has shape ``(M, K)`` and ``weight_matrix`` the layer's
    native ``(N_out, K)`` layout.  Every weight mapped onto a faulty PE is
    treated as bypassed (contributes zero), exactly as the FAP hardware of
    Zhang et al. (VTS 2018) behaves.
    """
    activations = np.asarray(activations)
    weight_matrix = np.asarray(weight_matrix)
    if activations.ndim != 2 or weight_matrix.ndim != 2:
        raise ValueError("simulate_gemm_on_array expects 2-D activations and weights")
    if activations.shape[1] != weight_matrix.shape[1]:
        raise ValueError(
            f"reduction-dimension mismatch: activations K={activations.shape[1]} vs "
            f"weights K={weight_matrix.shape[1]}"
        )
    gemm = layer_gemm_shape_from_matrix(weight_matrix)
    mask = gemm_fault_mask(gemm, fault_map, column_permutation)  # (N_out, K), True = bypassed
    effective_weights = np.where(mask, 0.0, weight_matrix)
    return activations @ effective_weights.T


def layer_gemm_shape_from_matrix(weight_matrix: np.ndarray):
    """GEMM shape of a raw ``(N_out, K)`` weight matrix."""
    from repro.accelerator.mapping import GemmShape

    n_out, k = weight_matrix.shape
    return GemmShape(reduce_dim=k, output_dim=n_out)


def simulate_linear_layer(
    layer: nn.Linear,
    inputs: np.ndarray,
    fault_map: FaultMap,
    column_permutation: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Output of a Linear layer executed on the faulty array (bias unaffected).

    The bias addition happens in the accumulator/output stage, outside the PE
    grid, so it is applied normally.
    """
    output = simulate_gemm_on_array(inputs, layer.weight.data, fault_map, column_permutation)
    if layer.bias is not None:
        output = output + layer.bias.data
    return output


def model_masks_match_hardware(
    model: nn.Module,
    fault_map_or_array,
    inputs: np.ndarray,
    atol: float = 1e-5,
) -> bool:
    """Check FAP-mask/hardware equivalence for every Linear layer of ``model``.

    For each Linear layer the output of (a) the layer with its weights masked
    in software and (b) the functional faulty-array simulation must agree.
    Convolutions are lowered to the same GEMM form, so verifying the Linear
    path validates the shared mapping code.
    """
    fault_map = (
        fault_map_or_array.fault_map
        if isinstance(fault_map_or_array, SystolicArray)
        else fault_map_or_array
    )
    inputs = np.asarray(inputs, dtype=np.float32)
    for _name, module in mappable_layers(model):
        if not isinstance(module, nn.Linear):
            continue
        layer_inputs = inputs
        if layer_inputs.shape[1] != module.in_features:
            layer_inputs = np.random.default_rng(0).standard_normal(
                (inputs.shape[0], module.in_features)
            ).astype(np.float32)
        hardware = simulate_linear_layer(module, layer_inputs, fault_map)
        mask = gemm_fault_mask(layer_gemm_shape(module), fault_map)
        masked_weight = np.where(mask, 0.0, module.weight.data)
        software = layer_inputs @ masked_weight.T
        if module.bias is not None:
            software = software + module.bias.data
        if not np.allclose(hardware, software, atol=atol):
            return False
    return True
