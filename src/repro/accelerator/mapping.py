"""Mapping DNN layers onto the systolic array and deriving fault masks.

This module encodes the key link between the physical fault map of a chip and
the weights of the network running on it.

Weight-stationary mapping convention (TPU / Zhang et al., VTS 2018):

* every Linear or Conv2d layer is lowered to a GEMM whose weight matrix has a
  *reduction* dimension ``K`` (input features, or ``in_channels * kh * kw``
  for convolutions after im2col) and an *output* dimension ``N``
  (output features / channels);
* weight element ``(k, n)`` is loaded into PE ``(k mod R, n mod C)`` of the
  ``R x C`` array — large layers are processed as multiple ``R x C`` tiles,
  so the physical fault pattern repeats periodically over the weight matrix;
* a permanent fault in PE ``(r, c)`` therefore forces *every* weight with
  ``k ≡ r (mod R)`` and ``n ≡ c (mod C)`` to zero under Fault-Aware Pruning.

Fault-aware mapping (FAM / SalvageDNN) permutes which logical output column
lands on which physical column, represented here by an optional per-layer
column permutation applied to the fault map before tiling.

Masks are built on every call and owned by the caller: a chip's masks live
as long as the chunk that uses them, so nothing here grows with the size of
the population.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.systolic_array import SystolicArray


@dataclasses.dataclass(frozen=True)
class GemmShape:
    """The GEMM view of a layer: ``K`` (reduction) by ``N`` (output) weights."""

    reduce_dim: int
    output_dim: int

    @property
    def num_weights(self) -> int:
        return self.reduce_dim * self.output_dim

    def __post_init__(self) -> None:
        if self.reduce_dim <= 0 or self.output_dim <= 0:
            raise ValueError("GEMM dimensions must be positive")


def is_mappable(module: nn.Module) -> bool:
    """True for layers executed on the systolic array (Linear and Conv2d)."""
    return isinstance(module, (nn.Linear, nn.Conv2d))


def mappable_layers(model: nn.Module) -> Iterator[Tuple[str, nn.Module]]:
    """Yield ``(name, module)`` for every layer mapped onto the array."""
    for name, module in model.named_modules():
        if is_mappable(module):
            yield name, module


def layer_gemm_shape(module: nn.Module) -> GemmShape:
    """GEMM dimensions of a mappable layer."""
    if isinstance(module, nn.Linear):
        out_features, in_features = module.weight.shape
        return GemmShape(reduce_dim=in_features, output_dim=out_features)
    if isinstance(module, nn.Conv2d):
        out_channels, in_channels, kh, kw = module.weight.shape
        return GemmShape(reduce_dim=in_channels * kh * kw, output_dim=out_channels)
    raise TypeError(f"module of type {type(module).__name__} is not mappable onto the array")


def weight_matrix_view(module: nn.Module) -> np.ndarray:
    """Return the layer weight as an ``(N_out, K)`` matrix (shares memory)."""
    if isinstance(module, nn.Linear):
        return module.weight.data
    if isinstance(module, nn.Conv2d):
        out_channels = module.weight.shape[0]
        return module.weight.data.reshape(out_channels, -1)
    raise TypeError(f"module of type {type(module).__name__} is not mappable onto the array")


def mask_cache_stats() -> Dict[str, int]:
    """Always zero: masks are built per call and no mask cache exists.

    Kept only because the benchmark harness (``perfbench/spans.py``) still
    reads its ``"hits"`` and ``"misses"`` keys; remove it once that reader
    is gone.
    """
    return {"hits": 0, "misses": 0}


def gemm_fault_mask(
    gemm: GemmShape,
    fault_map: FaultMap,
    column_permutation: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Boolean mask over the ``(N_out, K)`` weight matrix; True = faulty PE.

    The mask is produced by tiling the (optionally column-permuted) fault map
    periodically over the weight matrix according to the weight-stationary
    mapping described in the module docstring.  Every call builds a fresh
    read-only array; nothing is kept after the caller drops it.
    """
    effective_map = fault_map if column_permutation is None else fault_map.permuted_columns(column_permutation)
    rows, cols = effective_map.shape
    # mask[n, k] = faulty[k mod R, n mod C]: whole copies of the transposed
    # map, cut to (N_out, K).  One tile is several times cheaper than an
    # ``np.ix_`` gather of the same elements.
    reps = (-(-gemm.output_dim // cols), -(-gemm.reduce_dim // rows))
    tiled = np.tile(effective_map.array.T, reps)
    mask = np.ascontiguousarray(tiled[: gemm.output_dim, : gemm.reduce_dim])
    mask.setflags(write=False)
    return mask


def layer_fault_mask(
    module: nn.Module,
    fault_map: FaultMap,
    column_permutation: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Fault mask in the layer's native weight shape (True = must be zeroed)."""
    gemm = layer_gemm_shape(module)
    matrix_mask = gemm_fault_mask(gemm, fault_map, column_permutation)
    return matrix_mask.reshape(module.weight.shape)


def model_fault_masks(
    model: nn.Module,
    fault_map_or_array,
    column_permutations: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, np.ndarray]:
    """Fault masks for every mappable layer of ``model``.

    ``fault_map_or_array`` may be a :class:`FaultMap` or a
    :class:`SystolicArray`; the returned dict maps layer names to boolean
    masks shaped like the layer's weight (True = weight forced to zero).
    """
    fault_map = (
        fault_map_or_array.fault_map
        if isinstance(fault_map_or_array, SystolicArray)
        else fault_map_or_array
    )
    permutations = column_permutations or {}
    masks: Dict[str, np.ndarray] = {}
    for name, module in mappable_layers(model):
        masks[name] = layer_fault_mask(module, fault_map, permutations.get(name))
    return masks


def masked_weight_fraction(masks: Dict[str, np.ndarray]) -> float:
    """Overall fraction of weights zeroed by the given masks."""
    total = sum(mask.size for mask in masks.values())
    if total == 0:
        return 0.0
    zeroed = sum(int(mask.sum()) for mask in masks.values())
    return zeroed / total


def expected_masked_fraction(fault_rate: float) -> float:
    """Expected fraction of zeroed weights at a given PE fault rate.

    Under the periodic weight-stationary tiling, the expected fraction of
    weights landing on faulty PEs equals the PE fault rate (each weight is
    mapped to exactly one PE position).
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError("fault_rate must be in [0, 1]")
    return fault_rate


@dataclasses.dataclass(frozen=True)
class LayerMapping:
    """Summary of how one layer tiles onto a physical array."""

    layer_name: str
    gemm: GemmShape
    array_rows: int
    array_cols: int

    @property
    def row_tiles(self) -> int:
        return -(-self.gemm.reduce_dim // self.array_rows)

    @property
    def col_tiles(self) -> int:
        return -(-self.gemm.output_dim // self.array_cols)

    @property
    def num_tiles(self) -> int:
        return self.row_tiles * self.col_tiles

    @property
    def last_tile_rows(self) -> int:
        remainder = self.gemm.reduce_dim % self.array_rows
        return remainder if remainder else self.array_rows

    @property
    def last_tile_cols(self) -> int:
        remainder = self.gemm.output_dim % self.array_cols
        return remainder if remainder else self.array_cols


def model_mapping(model: nn.Module, array: SystolicArray) -> List[LayerMapping]:
    """Tiling summary for every mappable layer of a model on ``array``."""
    return [
        LayerMapping(name, layer_gemm_shape(module), array.rows, array.cols)
        for name, module in mappable_layers(model)
    ]
