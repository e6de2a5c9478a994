"""Tensors and the kernel contexts of the parameter-free layers.

A :class:`Tensor` holds one ``numpy.ndarray`` (``data``) and the gradient an
optimizer step reads (``grad``); model parameters and data batches are
tensors.  A :class:`Function` is a *kernel context*: its ``forward`` maps
numpy inputs to a numpy output and keeps what ``backward`` needs, and its
``backward`` maps the upstream gradient to one gradient per array input.
The stacked trainer's layer program (:mod:`repro.accelerator.batched`) runs
a fresh context per layer and step and calls the two methods itself; nothing
here records a graph.  :class:`ReLU`, :class:`Reshape` and
:class:`LogSoftmax` are the per-sample kernels it runs on folded arrays;
convolution and max pooling live in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

DEFAULT_DTYPE = np.float32


class Function:
    """Base class of the kernel contexts.

    Subclasses implement :meth:`forward` (producing a numpy array from numpy
    inputs) and :meth:`backward` (mapping the upstream gradient to a tuple of
    gradients, one per array input, in positional order).  Non-array inputs
    (integers, axis tuples, hyper-parameters) are passed through unchanged and
    receive no gradient.
    """

    def __init__(self) -> None:
        self.saved: Tuple[Any, ...] = ()
        # Which positional array inputs need a gradient; backward
        # implementations may skip computing gradients (returning None) for
        # inputs flagged False — e.g. the conv input-gradient scatter for the
        # first layer, whose input is the data batch.
        self.needs_input_grad: Tuple[bool, ...] = ()

    def save_for_backward(self, *values: Any) -> None:
        self.saved = values

    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:  # pragma: no cover - abstract
        raise NotImplementedError


class ReLU(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad_output: np.ndarray):
        (mask,) = self.saved
        return (grad_output * mask,)


class Reshape(Function):
    def forward(self, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad_output: np.ndarray):
        (original_shape,) = self.saved
        return (grad_output.reshape(original_shape),)


class LogSoftmax(Function):
    """Numerically stable log-softmax along ``axis``."""

    def forward(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_sum
        self.save_for_backward(out, axis)
        return out

    def backward(self, grad_output: np.ndarray):
        out, axis = self.saved
        softmax = np.exp(out)
        return (grad_output - softmax * grad_output.sum(axis=axis, keepdims=True),)


class Tensor:
    """A numpy array (``data``) and its gradient (``grad``)."""

    def __init__(self, data: Any, dtype: Optional[np.dtype] = None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        keep_float64 = isinstance(data, (np.ndarray, np.generic)) and data.dtype == np.float64
        array = np.asarray(data, dtype=dtype if dtype is not None else None)
        if dtype is None and array.dtype not in (np.float32, np.float64):
            array = array.astype(DEFAULT_DTYPE)
        elif dtype is None and array.dtype == np.float64 and not keep_float64:
            # Python floats / lists default to float64 under numpy; the
            # library-wide default dtype is float32, so only explicit float64
            # ndarrays (e.g. for numeric-gradient checks) keep double width.
            array = array.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, dtype={self.data.dtype.name})"
