"""Convolution lowering and max-pooling kernels.

The stacked trainer's convolutions use an im2col formulation: the lowering
(:func:`im2col_t`, :func:`_stacked_im2col_t`) and its inverse scatter
(:func:`_stacked_col2im_t`) are here.  This mirrors how a systolic-array
accelerator executes a convolution: the layer is lowered to a GEMM whose
weight matrix has shape ``(out_channels, in_channels * kh * kw)``, which is
exactly the matrix the fault-aware pruning masks in
:mod:`repro.accelerator.mapping` are generated for.  Max pooling has a
training kernel context (:class:`MaxPool2dFunction`) and an inference
kernel (:func:`max_pool2d_inference`).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.nn.tensor import Function

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
    ``(B * n, C, H, W)`` NCHW.

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
