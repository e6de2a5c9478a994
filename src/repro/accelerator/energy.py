"""First-order energy model for the systolic-array accelerator.

Energy is decomposed into MAC energy, on-chip SRAM traffic (weights loaded
once per tile, activations and partial sums streamed per GEMM) and off-chip
DRAM traffic (each weight and input activation fetched once per inference).
The constants come from :class:`~repro.accelerator.systolic_array.ArrayTechnology`
and are representative rather than calibrated; experiments use relative
comparisons only.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence, Tuple

from repro import nn
from repro.accelerator.systolic_array import ArrayTechnology, SystolicArray
from repro.accelerator.timing import GemmWorkload, model_gemm_workloads


@dataclasses.dataclass(frozen=True)
class LayerEnergy:
    """Energy estimate of one layer (all numbers in nanojoules)."""

    name: str
    mac_nj: float
    sram_nj: float
    dram_nj: float

    @property
    def total_nj(self) -> float:
        return self.mac_nj + self.sram_nj + self.dram_nj


@dataclasses.dataclass(frozen=True)
class ModelEnergy:
    """Aggregate per-inference energy estimate."""

    layers: Tuple[LayerEnergy, ...]

    @property
    def total_nj(self) -> float:
        return sum(layer.total_nj for layer in self.layers)

    def per_layer(self) -> Dict[str, float]:
        return {layer.name: layer.total_nj for layer in self.layers}


def gemm_energy(
    workload: GemmWorkload,
    technology: ArrayTechnology,
    rows: int,
    cols: int,
    zero_weight_fraction: float = 0.0,
) -> LayerEnergy:
    """Energy of one GEMM.

    ``zero_weight_fraction`` models the MAC energy saved by fault-aware
    pruning / clock-gated zero weights (the FAP hardware gates the multiplier
    of bypassed PEs).
    """
    if not 0.0 <= zero_weight_fraction <= 1.0:
        raise ValueError("zero_weight_fraction must be in [0, 1]")
    macs = workload.macs * (1.0 - zero_weight_fraction)
    mac_nj = macs * technology.mac_energy_pj * 1e-3

    row_tiles = -(-workload.k // rows)
    col_tiles = -(-workload.n // cols)
    weight_loads = workload.k * workload.n  # each weight loaded once per inference
    activation_reads = workload.m * workload.k * col_tiles  # activations re-streamed per column tile
    partial_sum_writes = workload.m * workload.n * row_tiles
    sram_accesses = weight_loads + activation_reads + partial_sum_writes
    sram_nj = sram_accesses * technology.sram_access_energy_pj * 1e-3

    dram_bytes = (
        workload.k * workload.n * technology.bytes_per_weight
        + workload.m * workload.k * technology.bytes_per_activation
    )
    dram_nj = dram_bytes * technology.dram_access_energy_pj * 1e-3
    return LayerEnergy(name=workload.name, mac_nj=mac_nj, sram_nj=sram_nj, dram_nj=dram_nj)


def estimate_model_energy(
    model: nn.Module,
    array: SystolicArray,
    input_shape: Sequence[int],
    batch_size: int = 1,
    zero_weight_fraction: float = 0.0,
) -> ModelEnergy:
    """Per-inference energy estimate of a model on the given array."""
    layers = [
        gemm_energy(workload, array.technology, array.rows, array.cols, zero_weight_fraction)
        for workload in model_gemm_workloads(model, input_shape, batch_size=batch_size)
    ]
    return ModelEnergy(layers=tuple(layers))
