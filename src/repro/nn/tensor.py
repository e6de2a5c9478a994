"""A small reverse-mode automatic-differentiation engine on top of numpy.

This module provides the :class:`Tensor` class used throughout the library
as the substrate for training deep neural networks.  It deliberately follows
the same mental model as PyTorch (the framework used by the original paper):

* a :class:`Tensor` wraps a ``numpy.ndarray`` plus an optional gradient;
* differentiable operations are implemented as :class:`Function` subclasses
  with ``forward``/``backward`` static behaviour;
* calling :meth:`Tensor.backward` on a scalar result walks the recorded graph
  in reverse topological order and accumulates gradients into the leaf
  tensors (the model parameters).

Only the operations required by the models and training procedures in this
repository are implemented, but they are implemented completely (broadcasting,
reductions over arbitrary axes, matrix products, element-wise math, shape
manipulation and indexing), so the engine is usable as a general-purpose
mini-framework.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import capture as backend_capture
from repro.backends.errors import BackendError, describe_operands

DEFAULT_DTYPE = np.float32

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# ---------------------------------------------------------------------------
# Global autograd state
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for autograd."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling gradient recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


@contextlib.contextmanager
def enable_grad():
    """Context manager re-enabling gradient recording inside ``no_grad``."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = True
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# ---------------------------------------------------------------------------
# Function base class
# ---------------------------------------------------------------------------


class Function:
    """Base class for differentiable operations.

    Subclasses implement :meth:`forward` (producing a numpy array from numpy
    inputs) and :meth:`backward` (mapping the upstream gradient to a tuple of
    gradients, one per tensor input, in positional order).  Non-tensor inputs
    (integers, axis tuples, hyper-parameters) are passed through unchanged and
    receive no gradient.
    """

    def __init__(self) -> None:
        self.parents: Tuple["Tensor", ...] = ()
        self.saved: Tuple[Any, ...] = ()
        # Which positional tensor inputs need a gradient; backward
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

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        ctx = cls()
        tensor_inputs = tuple(a for a in args if isinstance(a, Tensor))
        ctx.needs_input_grad = tuple(
            is_grad_enabled() and t.requires_grad for t in tensor_inputs
        )
        raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
        op_name = getattr(cls, "capture_name", cls.__name__.lower())
        try:
            output_data = ctx.forward(*raw_args, **kwargs)
        except AssertionError as exc:
            raise BackendError(
                f"forward violated a dtype/contiguity invariant for inputs "
                f"{describe_operands(raw_args)}: {exc}",
                op=op_name,
            ) from exc
        if not isinstance(output_data, (np.ndarray, np.generic)):
            raise BackendError(
                f"forward returned {type(output_data).__name__} for inputs "
                f"{describe_operands(raw_args)}, expected ndarray",
                op=op_name,
            )
        # Float32 dtype discipline: an op whose tensor inputs are all float32
        # must not silently promote its output to float64 (e.g. via a numpy
        # scalar operand) — a promotion would cascade through the rest of the
        # graph, doubling memory traffic on every downstream hot path.
        if (
            output_data.dtype == np.float64
            and tensor_inputs
            and all(t.data.dtype != np.float64 for t in tensor_inputs)
        ):
            output_data = output_data.astype(DEFAULT_DTYPE)
        requires_grad = is_grad_enabled() and any(t.requires_grad for t in tensor_inputs)
        output = Tensor(output_data, requires_grad=requires_grad)
        if backend_capture.is_capturing():
            # Record the post-construction array: Tensor() may coerce (numpy
            # scalars, integer dtypes), and downstream ops consume that array.
            backend_capture.record_function(cls, args, kwargs, output.data)
        if requires_grad:
            ctx.parents = tensor_inputs
            output._ctx = ctx
        return output

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


class Add(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad_output: np.ndarray):
        a_shape, b_shape = self.saved
        return _unbroadcast(grad_output, a_shape), _unbroadcast(grad_output, b_shape)


class Sub(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad_output: np.ndarray):
        a_shape, b_shape = self.saved
        return _unbroadcast(grad_output, a_shape), _unbroadcast(-grad_output, b_shape)


class Mul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad_output: np.ndarray):
        a, b = self.saved
        return _unbroadcast(grad_output * b, a.shape), _unbroadcast(grad_output * a, b.shape)


class Div(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad_output: np.ndarray):
        a, b = self.saved
        grad_a = grad_output / b
        grad_b = -grad_output * a / (b * b)
        return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


class Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad_output: np.ndarray):
        return (-grad_output,)


class Pow(Function):
    """Raise a tensor to a constant (non-tensor) power."""

    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.save_for_backward(a, exponent)
        return a ** exponent

    def backward(self, grad_output: np.ndarray):
        a, exponent = self.saved
        return (grad_output * exponent * (a ** (exponent - 1)),)


class Exp(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output: np.ndarray):
        (out,) = self.saved
        return (grad_output * out,)


class Log(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad_output: np.ndarray):
        (a,) = self.saved
        return (grad_output / a,)


class Sqrt(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output: np.ndarray):
        (out,) = self.saved
        return (grad_output / (2.0 * out),)


class Abs(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.abs(a)

    def backward(self, grad_output: np.ndarray):
        (a,) = self.saved
        return (grad_output * np.sign(a),)


class Clip(Function):
    def forward(self, a: np.ndarray, low: Optional[float], high: Optional[float]) -> np.ndarray:
        out = np.clip(a, low, high)
        mask = np.ones_like(a)
        if low is not None:
            mask = mask * (a >= low)
        if high is not None:
            mask = mask * (a <= high)
        self.save_for_backward(mask)
        return out

    def backward(self, grad_output: np.ndarray):
        (mask,) = self.saved
        return (grad_output * mask,)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


class ReLU(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad_output: np.ndarray):
        (mask,) = self.saved
        return (grad_output * mask,)


class LeakyReLU(Function):
    def forward(self, a: np.ndarray, negative_slope: float) -> np.ndarray:
        self.save_for_backward(a > 0, negative_slope)
        return np.where(a > 0, a, a * negative_slope)

    def backward(self, grad_output: np.ndarray):
        mask, negative_slope = self.saved
        return (np.where(mask, grad_output, grad_output * negative_slope),)


class Sigmoid(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad_output: np.ndarray):
        (out,) = self.saved
        return (grad_output * out * (1.0 - out),)


class Tanh(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_output: np.ndarray):
        (out,) = self.saved
        return (grad_output * (1.0 - out * out),)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _normalize_axis(axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Sum(Function):
    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.save_for_backward(a.shape, _normalize_axis(axis, a.ndim), keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad_output: np.ndarray):
        shape, axis, keepdims = self.saved
        grad = grad_output
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis=tuple(sorted(axis)))
        return (np.broadcast_to(grad, shape).astype(grad_output.dtype, copy=False).copy(),)


class Mean(Function):
    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        normalized = _normalize_axis(axis, a.ndim)
        if normalized is None:
            count = a.size
        else:
            count = int(np.prod([a.shape[i] for i in normalized]))
        self.save_for_backward(a.shape, normalized, keepdims, count)
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad_output: np.ndarray):
        shape, axis, keepdims, count = self.saved
        grad = grad_output / count
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis=tuple(sorted(axis)))
        return (np.broadcast_to(grad, shape).astype(grad_output.dtype, copy=False).copy(),)


class Max(Function):
    """Maximum reduction; gradient is routed to (all) positions attaining the max."""

    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        out = a.max(axis=axis, keepdims=True)
        self.save_for_backward(a, out, _normalize_axis(axis, a.ndim), keepdims)
        if keepdims or axis is None and keepdims:
            return out if keepdims else out.reshape(())
        return a.max(axis=axis, keepdims=keepdims)

    def backward(self, grad_output: np.ndarray):
        a, out_keepdims, axis, keepdims = self.saved
        mask = (a == out_keepdims).astype(a.dtype)
        mask /= mask.sum(axis=tuple(axis) if axis is not None else None, keepdims=True)
        grad = grad_output
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis=tuple(sorted(axis)))
        elif axis is None and not keepdims:
            grad = np.asarray(grad).reshape((1,) * a.ndim)
        return (mask * grad,)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


class MatMul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad_output: np.ndarray):
        a, b = self.saved
        if a.ndim == 1 and b.ndim == 1:
            return grad_output * b, grad_output * a
        if a.ndim == 1:
            grad_a = grad_output @ np.swapaxes(b, -1, -2)
            grad_b = np.outer(a, grad_output)
            return grad_a, grad_b
        if b.ndim == 1:
            grad_a = np.outer(grad_output, b) if a.ndim == 2 else np.expand_dims(grad_output, -1) * b
            grad_b = np.swapaxes(a, -1, -2) @ grad_output
            return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)
        grad_a = grad_output @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad_output
        return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


class Linear(Function):
    """Fused affine transform ``x @ weight.T + bias`` for 2-D inputs."""

    def forward(self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]) -> np.ndarray:
        self.save_for_backward(x, weight, bias is not None)
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out

    def backward(self, grad_output: np.ndarray):
        x, weight, has_bias = self.saved
        grad_x = None
        if not self.needs_input_grad or self.needs_input_grad[0]:
            grad_x = grad_output @ weight
        grad_w = grad_output.T @ x
        if has_bias:
            grad_b = grad_output.sum(axis=0)
            return grad_x, grad_w, grad_b
        return grad_x, grad_w


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


class Reshape(Function):
    def forward(self, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad_output: np.ndarray):
        (original_shape,) = self.saved
        return (grad_output.reshape(original_shape),)


class Transpose(Function):
    def forward(self, a: np.ndarray, axes: Optional[Tuple[int, ...]]) -> np.ndarray:
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        self.save_for_backward(axes)
        return a.transpose(axes)

    def backward(self, grad_output: np.ndarray):
        (axes,) = self.saved
        inverse = np.argsort(axes)
        return (grad_output.transpose(inverse),)


class GetItem(Function):
    def forward(self, a: np.ndarray, index: Any) -> np.ndarray:
        self.save_for_backward(a.shape, a.dtype, index)
        return a[index]

    def backward(self, grad_output: np.ndarray):
        shape, dtype, index = self.saved
        grad = np.zeros(shape, dtype=dtype)
        np.add.at(grad, index, grad_output)
        return (grad,)


class Concatenate(Function):
    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.save_for_backward(axis, [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad_output: np.ndarray):
        axis, sizes = self.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad_output, splits, axis=axis))


# ---------------------------------------------------------------------------
# Fused numerically-stable softmax family
# ---------------------------------------------------------------------------


class LogSoftmax(Function):
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


class Softmax(Function):
    def forward(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=axis, keepdims=True)
        self.save_for_backward(out, axis)
        return out

    def backward(self, grad_output: np.ndarray):
        out, axis = self.saved
        dot = (grad_output * out).sum(axis=axis, keepdims=True)
        return (out * (grad_output - dot),)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __array_priority__ = 100.0  # ensure Tensor ops win over ndarray ops

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ) -> None:
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
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._ctx: Optional[Function] = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        generator = rng if rng is not None else np.random.default_rng()
        return Tensor(generator.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._ctx is None

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying data as a numpy array (shared memory)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- autograd -----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only supported for scalar outputs"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo_order: List[Tensor] = []

        # Iterative DFS to avoid recursion limits on deep graphs.
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        visited_iter: set = set()
        while stack:
            node, processed = stack.pop()
            if processed:
                topo_order.append(node)
                continue
            if id(node) in visited_iter or node._ctx is None:
                continue
            visited_iter.add(id(node))
            stack.append((node, True))
            for parent in node._ctx.parents:
                if parent._ctx is not None and id(parent) not in visited_iter:
                    stack.append((parent, False))

        grads: Dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo_order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            ctx = node._ctx
            parent_grads = ctx.backward(node_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(ctx.parents):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(parent_grads)} gradients "
                    f"for {len(ctx.parents)} inputs"
                )
            for parent, parent_grad in zip(ctx.parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                parent_grad = np.asarray(parent_grad, dtype=parent.data.dtype)
                if parent._ctx is None:
                    parent.grad = parent_grad if parent.grad is None else parent.grad + parent_grad
                else:
                    existing = grads.get(id(parent))
                    grads[id(parent)] = parent_grad if existing is None else existing + parent_grad
        # Gradient w.r.t. self when self is a leaf.
        if self._ctx is None and self.requires_grad:
            self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic operators -----------------------------------------------

    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        return Add.apply(self, self._coerce(other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return Add.apply(self._coerce(other), self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return Sub.apply(self, self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Sub.apply(self._coerce(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return Mul.apply(self, self._coerce(other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return Mul.apply(self._coerce(other), self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return Div.apply(self, self._coerce(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Div.apply(self._coerce(other), self)

    def __neg__(self) -> "Tensor":
        return Neg.apply(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return Pow.apply(self, float(exponent))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return MatMul.apply(self, self._coerce(other))

    def __getitem__(self, index: Any) -> "Tensor":
        return GetItem.apply(self, index)

    # -- math methods --------------------------------------------------------

    def exp(self) -> "Tensor":
        return Exp.apply(self)

    def log(self) -> "Tensor":
        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        return Sqrt.apply(self)

    def abs(self) -> "Tensor":
        return Abs.apply(self)

    def clip(self, low: Optional[float] = None, high: Optional[float] = None) -> "Tensor":
        return Clip.apply(self, low, high)

    def relu(self) -> "Tensor":
        return ReLU.apply(self)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        return LeakyReLU.apply(self, negative_slope)

    def sigmoid(self) -> "Tensor":
        return Sigmoid.apply(self)

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Mean.apply(self, axis, keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Max.apply(self, axis, keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1) if lead else self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 0:
            axes_arg = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_arg = tuple(axes[0])
        else:
            axes_arg = tuple(axes)
        return Transpose.apply(self, axes_arg)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return LogSoftmax.apply(self, axis)

    def softmax(self, axis: int = -1) -> "Tensor":
        return Softmax.apply(self, axis)

    def matmul(self, other: ArrayLike) -> "Tensor":
        return self.__matmul__(other)

    def argmax(self, axis: Optional[int] = None) -> np.ndarray:
        """Return argmax indices as a plain numpy array (not differentiable)."""
        return self.data.argmax(axis=axis)

    # -- misc ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{grad_flag})"


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    if len(tensors) == 0:
        raise ValueError("concatenate() requires at least one tensor")
    return Concatenate.apply(*tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    expanded = [t.reshape(*t.shape[:axis], 1, *t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already a Tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
