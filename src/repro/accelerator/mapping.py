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
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
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


# ---------------------------------------------------------------------------
# Mask cache
# ---------------------------------------------------------------------------
#
# ``gemm_fault_mask`` is called once per mappable layer for every retraining
# run and every evaluation of a chip, but its output depends only on the fault
# map, the GEMM shape and the (optional) column permutation — all of which are
# identical across the many calls a campaign makes for one chip.  An LRU
# keyed by (fault-map fingerprint, GemmShape, permutation fingerprint) makes
# every call after the first a dictionary lookup.  Cached masks are read-only;
# callers treating masks as immutable (all in-tree callers do) share them
# zero-copy.
#
# The LRU is bounded by bytes only: mask size scales with the model's weight
# count, and a fleet pass builds every chip's masks once for triage and once
# for retraining (192 chips x 5 LeNet layers = 960 masks, ~3 MB), so an entry
# cap below one pass evicts each mask before its second use.  Every entry's
# key carries its own copy of the fault-map payload, so the byte count covers
# keys as well as masks; the payload is bit-packed (8x smaller than the bool
# map's ``tobytes()``, and exact because the key also holds the map's shape).
_MASK_CACHE_MAX_BYTES = 256 * 1024 * 1024
_MASK_CACHE: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
_MASK_CACHE_STATS = {"hits": 0, "misses": 0, "bytes": 0}


def _fault_map_fingerprint(fault_map: FaultMap) -> Tuple:
    """Exact content key of a fault map (shape + bit-packed payload)."""
    return (fault_map.shape, np.packbits(fault_map.array).tobytes())


def _entry_nbytes(key: Tuple, mask: np.ndarray) -> int:
    """Bytes one cache entry counts against the cap: mask plus key payloads."""
    (_, payload), _, perm_key = key
    return mask.nbytes + len(payload) + 8 * len(perm_key or ())


def clear_mask_cache() -> None:
    """Drop every cached fault mask (mainly for tests and benchmarks)."""
    _MASK_CACHE.clear()
    _MASK_CACHE_STATS["hits"] = 0
    _MASK_CACHE_STATS["misses"] = 0
    _MASK_CACHE_STATS["bytes"] = 0


def mask_cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus current size of the mask LRU."""
    return {**_MASK_CACHE_STATS, "size": len(_MASK_CACHE)}


def gemm_fault_mask(
    gemm: GemmShape,
    fault_map: FaultMap,
    column_permutation: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Boolean mask over the ``(N_out, K)`` weight matrix; True = faulty PE.

    The mask is produced by tiling the (optionally column-permuted) fault map
    periodically over the weight matrix according to the weight-stationary
    mapping described in the module docstring.  Results are memoized in a
    process-wide LRU (see above); the returned array is read-only.
    """
    perm_key = None if column_permutation is None else tuple(int(c) for c in column_permutation)
    key = (_fault_map_fingerprint(fault_map), gemm, perm_key)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        _MASK_CACHE_STATS["hits"] += 1
        _MASK_CACHE.move_to_end(key)
        return cached
    _MASK_CACHE_STATS["misses"] += 1
    effective_map = fault_map if column_permutation is None else fault_map.permuted_columns(column_permutation)
    faulty = effective_map.array
    rows, cols = faulty.shape
    k_indices = np.arange(gemm.reduce_dim) % rows
    n_indices = np.arange(gemm.output_dim) % cols
    # mask[k, n] = faulty[k mod R, n mod C]; transpose to the (N_out, K) layout.
    mask_kn = faulty[np.ix_(k_indices, n_indices)]
    mask = np.ascontiguousarray(mask_kn.T)
    mask.setflags(write=False)
    _MASK_CACHE[key] = mask
    _MASK_CACHE_STATS["bytes"] += _entry_nbytes(key, mask)
    while _MASK_CACHE and _MASK_CACHE_STATS["bytes"] > _MASK_CACHE_MAX_BYTES:
        evicted_key, evicted = _MASK_CACHE.popitem(last=False)
        _MASK_CACHE_STATS["bytes"] -= _entry_nbytes(evicted_key, evicted)
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
