"""Fault-Aware Mapping (FAM), after SalvageDNN (Hanif & Shafique, 2020).

FAM improves on plain fault-aware pruning by choosing *which* weights get
sacrificed: the mapping of logical output channels onto physical array
columns is permuted so that the columns containing the most faulty PEs
receive the least salient output channels.  The permutation is transparent to
the network's function (the hardware re-orders the columns), so in simulation
it only changes which weights the fault masks select: a chip's FAM masks are
``model_fault_masks(model, fault_map, compute_column_permutations(model,
fault_map))``, which :meth:`MitigationStrategy.chip_masks
<repro.mitigation.strategy.MitigationStrategy.chip_masks>` builds for every
``fam`` strategy.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.mapping import layer_gemm_shape, mappable_layers
from repro.accelerator.systolic_array import SystolicArray
from repro.mitigation.saliency import output_channel_saliency

PermutationDict = Dict[str, np.ndarray]


def _column_group_saliency(channel_saliency: np.ndarray, num_columns: int) -> np.ndarray:
    """Total saliency of the output channels mapped onto each physical column.

    Under the periodic mapping, logical output ``n`` lands on column group
    ``n mod C``; the group's saliency is the sum over its channels.
    """
    groups = np.zeros(num_columns, dtype=np.float64)
    indices = np.arange(channel_saliency.shape[0]) % num_columns
    np.add.at(groups, indices, channel_saliency.astype(np.float64))
    return groups


def layer_column_permutation(
    module: nn.Module,
    fault_map: FaultMap,
    metric: str = "magnitude",
) -> np.ndarray:
    """Saliency-driven column permutation for one layer.

    Returns ``perm`` such that logical column group ``j`` is mapped onto
    physical column ``perm[j]``: the least salient groups are assigned to the
    physical columns with the most faulty PEs.
    """
    gemm = layer_gemm_shape(module)
    num_columns = fault_map.cols
    channel_saliency = output_channel_saliency(module, metric=metric)
    group_saliency = _column_group_saliency(channel_saliency, num_columns)

    # Faults affecting each physical column, restricted to the rows this
    # layer actually uses (reduction indices k < K map to rows k mod R).
    rows_used = np.bincount(
        np.arange(gemm.reduce_dim) % fault_map.rows, minlength=fault_map.rows
    )
    column_fault_weight = (fault_map.array * rows_used[:, None]).sum(axis=0)

    groups_by_saliency = np.argsort(group_saliency, kind="stable")  # ascending saliency
    columns_by_faults = np.argsort(-column_fault_weight, kind="stable")  # descending faults
    permutation = np.empty(num_columns, dtype=np.int64)
    permutation[groups_by_saliency] = columns_by_faults
    return permutation


def compute_column_permutations(
    model: nn.Module,
    fault_map_or_array,
    metric: str = "magnitude",
) -> PermutationDict:
    """Per-layer saliency-driven column permutations for the whole model."""
    fault_map = (
        fault_map_or_array.fault_map
        if isinstance(fault_map_or_array, SystolicArray)
        else fault_map_or_array
    )
    return {
        name: layer_column_permutation(module, fault_map, metric=metric)
        for name, module in mappable_layers(model)
    }
