"""The serial oracle: one model, one reverse-mode tape.

The stacked trainer (:mod:`repro.accelerator.batched`) runs every model as a
layer program of kernels and records no graph.  The tests pin it, chip by
chip and bit for bit, to the serial path kept here, which no command runs:

* :func:`apply` runs a kernel context's ``forward`` on the arrays of its
  inputs and records it on the tape; :meth:`Tensor.backward` walks the tape
  in reverse topological order and accumulates gradients into the leaves
  (``repro.nn`` parameters, and tensors made with ``requires_grad=True``);
* :func:`linear`, :func:`conv2d`, :func:`max_pool2d`, :func:`nll_loss` and
  :func:`cross_entropy` are the serial functional ops, and the ``Tensor``
  operators and methods the elementwise ones;
* :func:`serial_forward` runs a model's leaf layers in registration order,
  the order the layer program runs them;
* :func:`apply_weight_masks` prunes a model in place.

``tests/helpers.py``'s ``ReferenceTrainer`` and ``serial_evaluate_accuracy``
train and evaluate through it.  It follows the same mental model as PyTorch,
the framework the original paper used.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import nn
from repro.nn.functional import (
    MaxPool2dFunction,
    _pair,
    _stacked_col2im_t,
    im2col_t,
)
from repro.nn.tensor import DEFAULT_DTYPE, Function, LogSoftmax, ReLU, Reshape

MaskDict = Dict[str, np.ndarray]
IntPair = Union[int, Tuple[int, int]]

# ---------------------------------------------------------------------------
# The tape
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


def _requires_grad(tensor: nn.Tensor) -> bool:
    """Parameters are leaves that need a gradient; other tensors say so."""
    return isinstance(tensor, nn.Parameter) or getattr(tensor, "requires_grad", False)


def _node(tensor: nn.Tensor) -> Optional[Function]:
    """The kernel context that produced ``tensor``; ``None`` for a leaf."""
    return getattr(tensor, "_ctx", None)


def apply(kernel: type, *args: Any, **kwargs: Any) -> "Tensor":
    """Run a fresh ``kernel`` context on ``args`` and record it on the tape.

    Tensor arguments are passed to ``forward`` as their arrays; other
    arguments (shapes, axes, hyper-parameters) as they are.
    """
    ctx = kernel()
    tensor_inputs = tuple(a for a in args if isinstance(a, nn.Tensor))
    ctx.needs_input_grad = tuple(
        is_grad_enabled() and _requires_grad(t) for t in tensor_inputs
    )
    raw_args = [a.data if isinstance(a, nn.Tensor) else a for a in args]
    output_data = ctx.forward(*raw_args, **kwargs)
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
    output = Tensor(output_data, requires_grad=any(ctx.needs_input_grad))
    if output.requires_grad:
        ctx.parents = tensor_inputs
        output._ctx = ctx
    return output


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


class Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad_output: np.ndarray):
        return (-grad_output,)


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


class Tensor(nn.Tensor):
    """A tensor on the tape: it remembers the kernel context that made it."""

    def __init__(
        self, data: Any, requires_grad: bool = False, dtype: Optional[np.dtype] = None
    ) -> None:
        super().__init__(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self._ctx: Optional[Function] = None

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

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

        topo_order: List[nn.Tensor] = []

        # Iterative DFS to avoid recursion limits on deep graphs.
        stack: List[Tuple[nn.Tensor, bool]] = [(self, False)]
        visited_iter: set = set()
        while stack:
            node, processed = stack.pop()
            if processed:
                topo_order.append(node)
                continue
            if id(node) in visited_iter or _node(node) is None:
                continue
            visited_iter.add(id(node))
            stack.append((node, True))
            for parent in _node(node).parents:
                if _node(parent) is not None and id(parent) not in visited_iter:
                    stack.append((parent, False))

        grads: Dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo_order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            ctx = _node(node)
            parent_grads = ctx.backward(node_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(ctx.parents):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(parent_grads)} gradients "
                    f"for {len(ctx.parents)} inputs"
                )
            for parent, parent_grad in zip(ctx.parents, parent_grads):
                if parent_grad is None or not _requires_grad(parent):
                    continue
                parent_grad = np.asarray(parent_grad, dtype=parent.data.dtype)
                if _node(parent) is None:
                    parent.grad = parent_grad if parent.grad is None else parent.grad + parent_grad
                else:
                    existing = grads.get(id(parent))
                    grads[id(parent)] = parent_grad if existing is None else existing + parent_grad
        # Gradient w.r.t. self when self is a leaf.
        if self._ctx is None and self.requires_grad:
            self.grad = grad if self.grad is None else self.grad + grad

    def _coerce(self, other: Any) -> nn.Tensor:
        if isinstance(other, nn.Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: Any) -> "Tensor":
        return apply(Add, self, self._coerce(other))

    def __sub__(self, other: Any) -> "Tensor":
        return apply(Sub, self, self._coerce(other))

    def __mul__(self, other: Any) -> "Tensor":
        return apply(Mul, self, self._coerce(other))

    def __neg__(self) -> "Tensor":
        return apply(Neg, self)

    def relu(self) -> "Tensor":
        return apply(ReLU, self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply(Sum, self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply(Mean, self, axis, keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply(Reshape, self, shape)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1) if lead else self.reshape(-1)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return apply(LogSoftmax, self, axis)


# ---------------------------------------------------------------------------
# Serial functional ops
# ---------------------------------------------------------------------------


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


def linear(x: nn.Tensor, weight: nn.Tensor, bias: Optional[nn.Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for 2-D ``x``."""
    return apply(Linear, x, weight, bias)


def col2im_t(
    colsT: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`~repro.nn.functional.im2col_t`.

    Accepts the ``(C * kh * kw, N * out_h * out_w)`` layout produced directly
    by the backward GEMM ``weight_matrix.T @ grad_t``.  This is the one-chip
    case of ``_stacked_col2im_t``, the only scatter implementation.
    """
    return _stacked_col2im_t(colsT, x_shape, 1, kernel_size, stride, padding, out_h, out_w)


class Conv2dFunction(Function):
    """2-D convolution via im2col, with full backward support."""

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        out_channels, in_channels, kh, kw = weight.shape
        if x.shape[1] != in_channels:
            raise ValueError(
                f"input has {x.shape[1]} channels but weight expects {in_channels}"
            )
        colsT, out_h, out_w = im2col_t(x, (kh, kw), stride, padding)
        weight_matrix = weight.reshape(out_channels, -1)
        # (O, K) @ (K, P): same dot products as ``cols @ weight_matrix.T``
        # with the faster K-major lowering; the transpose back to NCHW is the
        # one output copy either way.
        out_t = weight_matrix @ colsT
        if bias is not None:
            out_t += bias[:, None]
        n = x.shape[0]
        out = out_t.reshape(out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        if is_grad_enabled():
            # ``colsT`` is the dominant memory cost of a conv layer; only
            # keep it alive when a backward pass can actually consume it.
            self.save_for_backward(
                colsT, weight, x.shape, (kh, kw), stride, padding, out_h, out_w, bias is not None
            )
        return np.ascontiguousarray(out)

    def backward(self, grad_output: np.ndarray):
        colsT, weight, x_shape, kernel, stride, padding, out_h, out_w, has_bias = self.saved
        out_channels = weight.shape[0]
        n = x_shape[0]
        # (n, O, oh, ow) -> (O, n * oh * ow): this channel-major copy moves
        # contiguous spatial blocks (several times faster than gathering the
        # (P, O) layout) and feeds every GEMM below directly.  At 1x1 outputs
        # the reshape alone is a strided view, whose bias sum would round
        # differently from the stacked conv's contiguous one.
        grad_t = np.ascontiguousarray(
            grad_output.transpose(1, 0, 2, 3).reshape(out_channels, n * out_h * out_w)
        )
        grad_weight = (grad_t @ colsT.T).reshape(weight.shape)
        grad_x = None
        if not self.needs_input_grad or self.needs_input_grad[0]:
            # The col2im scatter is the most expensive part of the conv
            # backward; skip it when the input needs no gradient (the first
            # layer of every model — its input is the data batch).  The
            # column gradient is produced straight in the K-major layout the
            # scatter consumes, avoiding a reshape copy.
            weight_matrix = weight.reshape(out_channels, -1)
            grad_colsT = weight_matrix.T @ grad_t
            grad_x = col2im_t(grad_colsT, x_shape, kernel, stride, padding, out_h, out_w)
        if has_bias:
            grad_bias = grad_t.sum(axis=1)
            return grad_x, grad_weight, grad_bias
        return grad_x, grad_weight


def conv2d(
    x: nn.Tensor,
    weight: nn.Tensor,
    bias: Optional[nn.Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Differentiable 2-D convolution over an NCHW tensor."""
    return apply(Conv2dFunction, x, weight, bias, _pair(stride), _pair(padding))


def max_pool2d(x: nn.Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over the spatial dimensions of an NCHW tensor."""
    kernel = _pair(kernel_size)
    stride_pair = _pair(stride) if stride is not None else kernel
    return apply(MaxPool2dFunction, x, kernel, stride_pair)


class NllLossFunction(Function):
    """Negative log-likelihood of integer targets given log-probabilities."""

    def forward(self, log_probs: np.ndarray, targets: np.ndarray, reduction: str) -> np.ndarray:
        if log_probs.ndim != 2:
            raise ValueError(f"nll_loss expects (N, C) log-probabilities, got {log_probs.shape}")
        targets = np.asarray(targets).astype(np.int64).reshape(-1)
        if targets.shape[0] != log_probs.shape[0]:
            raise ValueError(
                f"targets length {targets.shape[0]} does not match batch size {log_probs.shape[0]}"
            )
        picked = log_probs[np.arange(log_probs.shape[0]), targets]
        self.save_for_backward(log_probs.shape, targets, reduction, log_probs.dtype)
        if reduction == "mean":
            return np.asarray(-picked.mean(), dtype=log_probs.dtype)
        if reduction == "sum":
            return np.asarray(-picked.sum(), dtype=log_probs.dtype)
        if reduction == "none":
            return -picked
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(self, grad_output: np.ndarray):
        shape, targets, reduction, dtype = self.saved
        n = shape[0]
        grad = np.zeros(shape, dtype=dtype)
        rows = np.arange(n)
        if reduction == "mean":
            grad[rows, targets] = -1.0 / n
            grad = grad * grad_output
        elif reduction == "sum":
            grad[rows, targets] = -1.0
            grad = grad * grad_output
        else:
            grad[rows, targets] = -1.0
            grad = grad * grad_output.reshape(n, 1)
        return (grad,)


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood loss for integer class targets."""
    return apply(NllLossFunction, log_probs, np.asarray(targets), reduction)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    reduction: str = "mean",
    label_smoothing: float = 0.0,
) -> Tensor:
    """Cross-entropy between raw logits and integer class targets.

    ``label_smoothing`` mixes the one-hot target with a uniform distribution,
    matching the semantics of ``torch.nn.functional.cross_entropy``.
    """
    log_probs = logits.log_softmax(axis=-1)
    if label_smoothing <= 0.0:
        return nll_loss(log_probs, targets, reduction=reduction)
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
    num_classes = logits.shape[-1]
    hard = nll_loss(log_probs, targets, reduction=reduction)
    if reduction == "mean":
        smooth = -log_probs.sum(axis=-1).mean() * (1.0 / num_classes)
    elif reduction == "sum":
        smooth = -log_probs.sum() * (1.0 / num_classes)
    else:
        smooth = -log_probs.sum(axis=-1) * (1.0 / num_classes)
    return hard * (1.0 - label_smoothing) + smooth * label_smoothing


# ---------------------------------------------------------------------------
# Models and masks
# ---------------------------------------------------------------------------


def serial_forward(model: nn.Module, x: Any) -> Tensor:
    """``model``'s forward on the tape: its leaf layers in registration order.

    That is the order the stacked trainer's layer program runs them, and a
    ``Linear`` flattens an input of more than two dimensions exactly where
    the program's ``Linear`` entry does.  A layer this oracle has no forward
    for raises :class:`NotImplementedError`.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    for _, layer in model.named_modules():
        if layer._modules and not layer._parameters:
            continue
        if isinstance(layer, nn.Linear):
            if x.ndim != 2:
                x = x.flatten(start_dim=1)
            x = linear(x, layer.weight, layer.bias)
        elif isinstance(layer, nn.Conv2d):
            x = conv2d(x, layer.weight, layer.bias, stride=layer.stride, padding=layer.padding)
        elif isinstance(layer, nn.ReLU):
            x = x.relu()
        elif isinstance(layer, nn.MaxPool2d):
            x = max_pool2d(x, layer.kernel_size, layer.stride)
        elif isinstance(layer, nn.Flatten):
            x = x.flatten(start_dim=layer.start_dim)
        else:
            raise NotImplementedError(f"no serial forward for {type(layer).__name__}")
    return x


def _resolve_masked_weight(model_modules: Dict[str, nn.Module], name: str, mask: np.ndarray):
    """Look up and validate the weight tensor a mask applies to."""
    if name not in model_modules:
        raise KeyError(f"mask refers to unknown layer {name!r}")
    weight = getattr(model_modules[name], "weight", None)
    if weight is None:
        raise ValueError(f"layer {name!r} has no weight to mask")
    if mask.shape != weight.data.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match weight shape {weight.data.shape} for layer {name!r}"
        )
    return weight


def apply_weight_masks(model: nn.Module, masks: Optional[MaskDict]) -> None:
    """Zero out the weights selected by ``masks`` (True = forced to zero)."""
    if not masks:
        return
    modules = dict(model.named_modules())
    for name, mask in masks.items():
        weight = _resolve_masked_weight(modules, name, mask)
        weight.data[mask] = 0.0
