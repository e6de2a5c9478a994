"""Functional (stateless) neural-network operations.

The convolution and pooling operators are implemented as fused autograd
:class:`~repro.nn.tensor.Function` subclasses using an im2col formulation.
This mirrors how a systolic-array accelerator executes a convolution: the
layer is lowered to a GEMM whose weight matrix has shape
``(out_channels, in_channels * kh * kw)``, which is exactly the matrix the
fault-aware pruning masks in :mod:`repro.accelerator.mapping` are generated
for.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn.tensor import Function, Tensor, is_grad_enabled
from repro.nn.tensor import Linear as LinearFunction

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _pad_nchw(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the spatial dims (faster than the generic ``np.pad``)."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    return padded


# ---------------------------------------------------------------------------
# im2col helpers
# ---------------------------------------------------------------------------


def im2col_t(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, int, int]:
    """Lower an NCHW activation tensor into a K-major GEMM operand.

    Returns ``(colsT, out_h, out_w)`` with ``colsT`` of shape
    ``(C * kh * kw, N * out_h * out_w)``, C-contiguous; the ``(P, K)``
    operand of the GEMM is the zero-copy view ``colsT.T``.  This is the
    one-chip case of :func:`_stacked_im2col_t`, the only lowering.
    """
    stack, out_h, out_w = _stacked_im2col_t(x, 1, kernel_size, stride, padding)
    return stack[0], out_h, out_w


def _stacked_im2col_t(
    x: np.ndarray,
    num_chips: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, int, int]:
    """Lower folded ``(B * n, C, H, W)`` activations into a ``(B, K, P)`` stack.

    Chip ``b``'s slice is the K-major lowering of ``x[b * n:(b + 1) * n]``
    (``B = 1`` is :func:`im2col_t`), copied straight into a freshly allocated
    C-contiguous stack; the GEMM operand therefore has the same layout for
    every geometry, 1x1 outputs included.

    The lowering is a copy over (kernel offset, output pixel) pairs.  Outputs
    with at least as many pixels as kernel offsets take one strided copy
    whose inner runs are output rows.  Smaller outputs (e.g. LeNet's
    6x6 -> 2x2 conv2) take one copy per output pixel whose inner runs are the
    ``n`` samples instead of ``out_w``-long rows, so the Python loop never
    has more iterations than a kernel has offsets.  Both only move elements,
    so they write the same bits.
    """
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    total, c, h, w = x.shape
    per_chip = total // num_chips
    if ph or pw:
        x = _pad_nchw(x, ph, pw)
    padded_h, padded_w = h + 2 * ph, w + 2 * pw
    if padded_h < kh or padded_w < kw:
        raise ValueError(
            f"kernel {kernel_size} larger than padded input ({padded_h}, {padded_w})"
        )
    out_h = (padded_h - kh) // sh + 1
    out_w = (padded_w - kw) // sw + 1
    stack = np.empty((num_chips, c * kh * kw, per_chip * out_h * out_w), dtype=x.dtype)
    dest = stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    if out_h * out_w < kh * kw:
        # (B * n, C, H, W) -> (B, C, H, W, n), a view.
        src = x.reshape(num_chips, per_chip, c, padded_h, padded_w).transpose(0, 2, 3, 4, 1)
        for oy in range(out_h):
            for ox in range(out_w):
                window = src[:, :, oy * sh:oy * sh + kh, ox * sw:ox * sw + kw]
                np.copyto(dest[..., oy, ox], window)
        return stack, out_h, out_w
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    if sh != 1 or sw != 1:
        windows = windows[:, :, ::sh, ::sw, :, :]
    # (B * n, C, oh, ow, kh, kw) -> split the chip axis (still a view).
    split = windows.reshape((num_chips, per_chip) + windows.shape[1:])
    np.copyto(dest, split.transpose(0, 2, 5, 6, 1, 3, 4))
    return stack, out_h, out_w


def col2im_t(
    colsT: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col_t` (K-major column gradients).

    Accepts the ``(C * kh * kw, N * out_h * out_w)`` layout produced directly
    by the backward GEMM ``weight_matrix.T @ grad_t``.  This is the one-chip
    case of :func:`_stacked_col2im_t`, the only scatter implementation.
    """
    return _stacked_col2im_t(colsT, x_shape, 1, kernel_size, stride, padding, out_h, out_w)


def _stacked_col2im_t(
    cols_stack: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    num_chips: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add a ``(B, C * kh * kw, n * out_h * out_w)`` column-gradient
    stack (the inverse of the stacked multi-chip lowering) back to folded
    ``(B * n, C, H, W)`` NCHW; ``B = 1`` is :func:`col2im_t`.

    One transposing copy moves the columns to ``(kh, kw, oh, ow, B, C, n)``,
    so every ``(i, j)`` phase add into the spatial-major ``(H + 2p, W + 2p,
    B, C, n)`` buffer runs over contiguous ``B * C * n`` inner runs instead of
    ``ow``-long strided ones.  Each input element still starts at ``+0.0``
    and receives its window contributions in the same ``(i, j)`` order as a
    phase sweep over NCHW, so the result is bit-identical to one.
    """
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    total, c, h, w = x_shape
    per_chip = total // num_chips
    phases = np.ascontiguousarray(
        cols_stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
        .transpose(2, 3, 5, 6, 0, 1, 4)
    )
    dx = np.zeros((h + 2 * ph, w + 2 * pw, num_chips, c, per_chip), dtype=cols_stack.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[i:i + sh * out_h:sh, j:j + sw * out_w:sw] += phases[i, j]
    # Crop the padding; (H, W, B, C, n) -> (B, n, C, H, W) is the one copy back.
    cropped = dx[ph:ph + h, pw:pw + w].transpose(2, 4, 3, 0, 1)
    return np.ascontiguousarray(cropped).reshape(total, c, h, w)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


class Conv2dFunction(Function):
    """2-D convolution via im2col, with full backward support."""

    capture_name = "conv2d"

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
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Differentiable 2-D convolution over an NCHW tensor."""
    stride = _pair(stride)
    padding = _pair(padding)
    if bias is None:
        return Conv2dFunction.apply(x, weight, None, stride, padding)
    return Conv2dFunction.apply(x, weight, bias, stride, padding)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def max_pool2d_inference(
    x: np.ndarray, kernel_size: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Max pooling for passes no backward follows: elementwise maxima over
    strided phase views, with no argmax bookkeeping and no copy beyond the
    running maximum.  Its output equals the training forward's."""
    kh, kw = kernel_size
    sh, sw = stride
    out_h = (x.shape[2] - kh) // sh + 1
    out_w = (x.shape[3] - kw) // sw + 1
    out = None
    for i in range(kh):
        for j in range(kw):
            phase = x[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            if out is None:
                out = phase.copy()
            else:
                np.maximum(out, phase, out=out)
    return out


class MaxPool2dFunction(Function):
    capture_name = "max_pool2d"

    def forward(
        self,
        x: np.ndarray,
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
    ) -> np.ndarray:
        kh, kw = kernel_size
        sh, sw = stride
        n, c, h, w = x.shape
        out_h = (h - kh) // sh + 1
        out_w = (w - kw) // sw + 1
        # The phase sweep of :func:`max_pool2d_inference`, also tracking the
        # winning within-window flat index for the backward.  Only a strictly
        # greater value replaces the running maximum, so ties resolve to the
        # first (row-major) window position — identical to ``argmax`` over
        # the window axis.
        # Each phase is compared as a contiguous copy, and the argmax update
        # is an arithmetic select rather than a boolean-mask scatter, so
        # every sweep runs over long contiguous runs.
        out = None
        argmax = None
        for i in range(kh):
            for j in range(kw):
                phase = x[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
                if out is None:
                    out = phase.copy()
                    argmax = np.zeros(out.shape, dtype=np.int16)
                else:
                    phase = np.ascontiguousarray(phase)
                    better = phase > out
                    np.maximum(out, phase, out=out)
                    argmax -= argmax * better
                    argmax += better * np.int16(i * kw + j)
        self.save_for_backward(x.shape, kernel_size, stride, argmax, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray):
        x_shape, (kh, kw), (sh, sw), argmax, out_h, out_w = self.saved
        # Route each window's gradient to its argmax position, one window
        # phase at a time: within a phase every target element is distinct,
        # so a masked strided write replaces the (much slower) np.add.at
        # scatter.
        if (sh, sw) == (kh, kw) and x_shape[2:] == (kh * out_h, kw * out_w):
            # Exact tiling: the phases partition ``dx``, so each element is
            # written once, straight into uninitialised memory.  The final
            # ``+ 0.0`` gives the bits of the accumulate below (``0.0 +
            # g * sel``): -0.0 becomes +0.0, NaN and inf pass through.
            dx = np.empty(x_shape, dtype=grad_output.dtype)
            for i in range(kh):
                for j in range(kw):
                    np.multiply(
                        grad_output, argmax == (i * kw + j),
                        out=dx[:, :, i::sh, j::sw],
                    )
            dx += 0.0
            return (dx,)
        # Overlapping windows accumulate across phases, and ragged edges
        # (rows or columns no window covers) keep their zero.
        dx = np.zeros(x_shape, dtype=grad_output.dtype)
        for i in range(kh):
            for j in range(kw):
                selected = argmax == (i * kw + j)
                view = dx[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
                view += grad_output * selected
        return (dx,)


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over the spatial dimensions of an NCHW tensor."""
    kernel = _pair(kernel_size)
    stride_pair = _pair(stride) if stride is not None else kernel
    return MaxPool2dFunction.apply(x, kernel, stride_pair)


# ---------------------------------------------------------------------------
# Activations and affine layers
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for 2-D ``x``."""
    return LinearFunction.apply(x, weight, bias)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


class NllLossFunction(Function):
    """Negative log-likelihood of integer targets given log-probabilities."""

    capture_name = "nll_loss"

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
    return NllLossFunction.apply(log_probs, np.asarray(targets), reduction)


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
