"""Cycle-accurate-ish timing model for the weight-stationary systolic array.

The model is the standard analytical estimate for an output/weight-stationary
array (as used in TPU-style designs): a GEMM of size ``M x K x N`` (``M``
activations, ``K`` reduction, ``N`` outputs) executed on an ``R x C`` array is
split into ``ceil(K / R) * ceil(N / C)`` weight tiles; each tile streams the
``M`` activation rows through the array, paying the pipeline fill/drain cost
``R + C - 2`` plus a fixed weight-load cost of ``R`` cycles.

The absolute numbers are not calibrated against silicon — the experiments only
use *relative* latencies (e.g. FAP retains full throughput while PE-bypass
techniques shrink the effective array, motivation §I of the paper).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro import nn
from repro.accelerator.mapping import layer_gemm_shape
from repro.accelerator.systolic_array import SystolicArray


@dataclasses.dataclass(frozen=True)
class GemmWorkload:
    """A single GEMM executed on the array."""

    name: str
    m: int  # activation rows (batch * output spatial positions)
    k: int  # reduction dimension
    n: int  # output dimension

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError("GEMM dimensions must be positive")

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n


@dataclasses.dataclass(frozen=True)
class LayerTiming:
    """Timing estimate of one layer on a specific array."""

    name: str
    workload: GemmWorkload
    cycles: int
    utilization: float

    @property
    def macs(self) -> int:
        return self.workload.macs


@dataclasses.dataclass(frozen=True)
class ModelTiming:
    """Aggregate timing of a model (one inference pass) on an array."""

    layers: Tuple[LayerTiming, ...]
    array_rows: int
    array_cols: int
    frequency_mhz: float

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / (self.frequency_mhz * 1e3)

    @property
    def utilization(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        peak = self.total_cycles * self.array_rows * self.array_cols
        return self.total_macs / peak

    def per_layer(self) -> Dict[str, int]:
        return {layer.name: layer.cycles for layer in self.layers}


def gemm_cycles(
    workload: GemmWorkload,
    rows: int,
    cols: int,
    physical_rows: Optional[int] = None,
    physical_cols: Optional[int] = None,
) -> int:
    """Cycles to execute one GEMM on an ``rows x cols`` weight-stationary array.

    ``rows``/``cols`` describe the *usable* tile capacity.  When part of the
    array is bypassed (PE-bypass mitigation), data still traverses the full
    physical grid, so ``physical_rows``/``physical_cols`` (defaulting to the
    usable size) set the weight-load and pipeline fill/drain latency.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("array dimensions must be positive")
    physical_rows = physical_rows if physical_rows is not None else rows
    physical_cols = physical_cols if physical_cols is not None else cols
    if physical_rows < rows or physical_cols < cols:
        raise ValueError("physical array dimensions cannot be smaller than the usable tile size")
    row_tiles = -(-workload.k // rows)
    col_tiles = -(-workload.n // cols)
    weight_load = physical_rows  # cycles to shift a weight tile into the array
    pipeline = physical_rows + physical_cols - 2
    per_tile = weight_load + pipeline + workload.m
    return row_tiles * col_tiles * per_tile


def gemm_utilization(
    workload: GemmWorkload,
    rows: int,
    cols: int,
    physical_rows: Optional[int] = None,
    physical_cols: Optional[int] = None,
) -> float:
    """Achieved MAC utilization of the (physical) array for one GEMM."""
    cycles = gemm_cycles(workload, rows, cols, physical_rows, physical_cols)
    if cycles == 0:
        return 0.0
    physical_rows = physical_rows if physical_rows is not None else rows
    physical_cols = physical_cols if physical_cols is not None else cols
    return workload.macs / (cycles * physical_rows * physical_cols)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size ({out}) for input {size}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out


def model_gemm_workloads(
    model: nn.Module,
    input_shape: Sequence[int],
    batch_size: int = 1,
) -> List[GemmWorkload]:
    """Lower every mappable layer of ``model`` to a GEMM workload.

    ``input_shape`` is the per-sample shape: ``(C, H, W)`` for convolutional
    models or ``(F,)`` for MLPs.  Spatial sizes are propagated through conv
    and pooling layers module-by-module in declaration order, which matches
    the sequential models used throughout this repository.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    workloads: List[GemmWorkload] = []
    if len(input_shape) == 3:
        _, height, width = (int(d) for d in input_shape)
    else:
        height = width = 1

    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            kh, kw = module.kernel_size
            sh, sw = module.stride
            ph, pw = module.padding
            out_h = conv_output_size(height, kh, sh, ph)
            out_w = conv_output_size(width, kw, sw, pw)
            gemm = layer_gemm_shape(module)
            workloads.append(
                GemmWorkload(
                    name=name,
                    m=batch_size * out_h * out_w,
                    k=gemm.reduce_dim,
                    n=gemm.output_dim,
                )
            )
            height, width = out_h, out_w
        elif isinstance(module, nn.MaxPool2d):
            kh, kw = module.kernel_size
            sh, sw = module.stride
            height = (height - kh) // sh + 1
            width = (width - kw) // sw + 1
        elif isinstance(module, nn.Linear):
            gemm = layer_gemm_shape(module)
            workloads.append(
                GemmWorkload(name=name, m=batch_size, k=gemm.reduce_dim, n=gemm.output_dim)
            )
    return workloads


def estimate_model_timing(
    model: nn.Module,
    array: SystolicArray,
    input_shape: Sequence[int],
    batch_size: int = 1,
    effective_rows: Optional[int] = None,
    effective_cols: Optional[int] = None,
) -> ModelTiming:
    """Estimate the end-to-end timing of one forward pass of ``model``.

    ``effective_rows`` / ``effective_cols`` override the usable array size —
    used by the PE-bypass baseline, which views a faulty array as a smaller
    fault-free one.
    """
    rows = effective_rows if effective_rows is not None else array.rows
    cols = effective_cols if effective_cols is not None else array.cols
    if rows <= 0 or cols <= 0:
        raise ValueError("effective array dimensions must be positive")
    layers = []
    for workload in model_gemm_workloads(model, input_shape, batch_size=batch_size):
        cycles = gemm_cycles(workload, rows, cols, array.rows, array.cols)
        layers.append(
            LayerTiming(
                name=workload.name,
                workload=workload,
                cycles=cycles,
                utilization=gemm_utilization(workload, rows, cols, array.rows, array.cols),
            )
        )
    return ModelTiming(
        layers=tuple(layers),
        array_rows=array.rows,
        array_cols=array.cols,
        frequency_mhz=array.technology.frequency_mhz,
    )
