"""Neural-network layers: parameters and hyper-parameters, no forward.

A layer says what to compute; the stacked trainer's layer program
(:mod:`repro.accelerator.batched`) runs the leaf layers of a model in
registration order.  A :class:`Linear` flattens an input of more than two
dimensions first.

The convolution and linear layers are the ones mapped onto the systolic
array by :mod:`repro.accelerator.mapping`; they therefore expose their weight
matrices in the exact layout used for fault-aware pruning masks
(``(out_features, in_features)`` for :class:`Linear` and
``(out_channels, in_channels, kh, kw)`` for :class:`Conv2d`, lowered to
``(out_channels, in_channels * kh * kw)`` for the GEMM view).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, new_rng

IntPair = Union[int, Tuple[int, int]]


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        generator = new_rng(rng)
        weight = init.kaiming_uniform((out_features, in_features), generator)
        self.weight = Parameter(weight)
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                init.bias_uniform_for((out_features, in_features), (out_features,), generator)
            )
        else:
            self.bias = None

    def extra_repr(self) -> str:
        return f"in_features={self.in_features}, out_features={self.out_features}, bias={self.bias is not None}"


class Conv2d(Module):
    """2-D convolution layer (NCHW layout)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("in_channels and out_channels must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        generator = new_rng(rng)
        kh, kw = self.kernel_size
        weight_shape = (out_channels, in_channels, kh, kw)
        self.weight = Parameter(init.kaiming_normal(weight_shape, generator))
        if bias:
            self.bias: Optional[Parameter] = Parameter(init.zeros((out_channels,)))
        else:
            self.bias = None

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bias={self.bias is not None}"
        )


class ReLU(Module):
    """Rectified linear unit."""


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None) -> None:
        super().__init__()
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride) if stride is not None else self.kernel_size

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}, stride={self.stride}"


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def extra_repr(self) -> str:
        return f"start_dim={self.start_dim}"
