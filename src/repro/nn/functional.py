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

from repro.nn.tensor import Function, Tensor, as_tensor, is_grad_enabled

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
        if not is_grad_enabled():
            # Inference fast path: reduce the kh*kw window positions with
            # elementwise maxima over strided phase views — no window
            # materialisation, no argmax bookkeeping, zero temporary copies
            # beyond the running maximum itself.
            out = None
            for i in range(kh):
                for j in range(kw):
                    phase = x[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
                    if out is None:
                        out = phase.copy()
                    else:
                        np.maximum(out, phase, out=out)
            return out
        # Training path: the same phase sweep also tracks the winning
        # within-window flat index.  Only a strictly greater value replaces
        # the running maximum, so ties resolve to the first (row-major)
        # window position — identical to ``argmax`` over the window axis.
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
        dx = np.zeros(x_shape, dtype=grad_output.dtype)
        # Route each window's gradient to its argmax position, one window
        # phase at a time: within a phase every target element is distinct,
        # so a masked strided accumulate replaces the (much slower) np.add.at
        # scatter.  Overlapping windows accumulate across phase iterations.
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


class AvgPool2dFunction(Function):
    capture_name = "avg_pool2d"

    def forward(
        self,
        x: np.ndarray,
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
    ) -> np.ndarray:
        kh, kw = kernel_size
        sh, sw = stride
        windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
        if sh != 1 or sw != 1:
            windows = windows[:, :, ::sh, ::sw, :, :]
        out = windows.mean(axis=(-2, -1))
        self.save_for_backward(x.shape, kernel_size, stride, out.shape)
        return np.ascontiguousarray(out)

    def backward(self, grad_output: np.ndarray):
        x_shape, (kh, kw), (sh, sw), out_shape = self.saved
        n, c, out_h, out_w = out_shape
        dx = np.zeros(x_shape, dtype=grad_output.dtype)
        scaled = grad_output / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += scaled
        return (dx,)


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over the spatial dimensions of an NCHW tensor."""
    kernel = _pair(kernel_size)
    stride_pair = _pair(stride) if stride is not None else kernel
    return AvgPool2dFunction.apply(x, kernel, stride_pair)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning an ``(N, C)`` tensor."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Normalisation, dropout and activations
# ---------------------------------------------------------------------------


def _bn_axes(ndim: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(reduce_axes, param_shape)`` for a 2-D or 4-D batch-norm input."""
    if ndim == 4:
        return (0, 2, 3), (1, -1, 1, 1)
    if ndim == 2:
        return (0,), (1, -1)
    raise ValueError(f"batch_norm expects a 2-D or 4-D input, got {ndim}-D")


def _bn_train_forward(
    x: np.ndarray,
    gamma_b: np.ndarray,
    beta_b: np.ndarray,
    reduce_axes: Tuple[int, ...],
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Training-mode batch-norm forward arithmetic on raw arrays.

    Shared between the fused serial :class:`BatchNormFunction` and the
    stacked multi-chip variant in :mod:`repro.accelerator.batched`, which
    calls it on each chip's contiguous fold — bit-identical by construction.
    Returns ``(out, normalised, inv_std, mean, var)`` (mean/var keep dims).
    """
    mean = x.mean(axis=reduce_axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=reduce_axes, keepdims=True)
    inv_std = (var + eps) ** -0.5
    normalised = centered * inv_std
    out = normalised * gamma_b + beta_b
    return out, normalised, inv_std, mean, var


def _bn_train_backward(
    grad_output: np.ndarray,
    gamma_b: np.ndarray,
    normalised: np.ndarray,
    inv_std: np.ndarray,
    reduce_axes: Tuple[int, ...],
    need_input_grad: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Analytic batch-norm backward (gradients through the batch statistics).

    With ``xhat`` the normalised activations and ``g`` the upstream gradient,

        dx = inv_std * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma * xhat))

    which is the standard fused form of the ~15 generic autograd nodes the
    composed training-mode batch norm used to record per layer.  Shared with
    the stacked multi-chip op (called per chip fold).  Returns
    ``(grad_x, grad_gamma, grad_beta)`` with the parameter gradients reduced
    to 1-D ``(C,)`` vectors; ``grad_x`` is None when ``need_input_grad`` is
    False (a first-layer batch norm whose input is the data batch).
    """
    grad_x = None
    if need_input_grad:
        dxhat = grad_output * gamma_b
        grad_x = inv_std * (
            dxhat
            - dxhat.mean(axis=reduce_axes, keepdims=True)
            - normalised * (dxhat * normalised).mean(axis=reduce_axes, keepdims=True)
        )
    grad_gamma = (grad_output * normalised).sum(axis=reduce_axes)
    grad_beta = grad_output.sum(axis=reduce_axes)
    return grad_x, grad_gamma, grad_beta


def _bn_eval_forward(x, gamma_b, beta_b, mean_const, var_const, eps):
    """Eval-mode normalisation with running statistics as constants.

    Generic over Tensor/ndarray operands; shared between the serial
    :func:`batch_norm` eval path and the stacked multi-chip eval path so the
    per-chip arithmetic stays expression-for-expression identical (the
    bit-exact serial-equivalence guarantee covers eval checkpoints too).
    """
    scale = gamma_b * (1.0 / np.sqrt(var_const + eps))
    return (x - mean_const) * scale + beta_b


def bn_running_update(
    running_mean: np.ndarray,
    running_var: np.ndarray,
    batch_mean: np.ndarray,
    batch_var: np.ndarray,
    reduce_count: int,
    momentum: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """EMA update of batch-norm running statistics (Bessel-corrected variance).

    ``batch_var`` is the biased batch variance as computed by the forward;
    the stored running variance uses the unbiased estimate, mirroring
    PyTorch.  Shared by the serial layer and the stacked multi-chip trainer
    (applied per chip) so updated statistics agree bit for bit.
    """
    bessel = reduce_count / max(reduce_count - 1, 1)
    new_mean = (1 - momentum) * running_mean + momentum * batch_mean
    new_var = (1 - momentum) * running_var + momentum * (batch_var * bessel)
    return new_mean, new_var


class BatchNormFunction(Function):
    """Fused training-mode batch normalisation with an analytic backward.

    The composed formulation recorded ~15 generic autograd nodes per layer
    (profiled at ~20% of a ``vgg11_mini`` training step); this single node
    computes the identical forward arithmetic (:func:`_bn_train_forward`, so
    outputs are bit-identical to the composed path) and the standard closed-
    form backward through the batch statistics.

    ``stats_out`` is an optional list the forward appends the 1-D batch mean
    and (biased) batch variance to, so callers can update running statistics
    without a second pass over the input.
    """

    capture_name = "batch_norm"

    def forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        reduce_axes: Tuple[int, ...],
        param_shape: Tuple[int, ...],
        eps: float,
        stats_out: Optional[list] = None,
    ) -> np.ndarray:
        gamma_b = gamma.reshape(param_shape)
        beta_b = beta.reshape(param_shape)
        out, normalised, inv_std, mean, var = _bn_train_forward(
            x, gamma_b, beta_b, reduce_axes, eps
        )
        if stats_out is not None:
            stats_out.append(mean.reshape(-1))
            stats_out.append(var.reshape(-1))
        if is_grad_enabled():
            self.save_for_backward(gamma_b, normalised, inv_std, reduce_axes, gamma.shape)
        return out

    def backward(self, grad_output: np.ndarray):
        gamma_b, normalised, inv_std, reduce_axes, param_vec_shape = self.saved
        grad_x, grad_gamma, grad_beta = _bn_train_backward(
            grad_output, gamma_b, normalised, inv_std, reduce_axes,
            need_input_grad=not self.needs_input_grad or self.needs_input_grad[0],
        )
        return grad_x, grad_gamma.reshape(param_vec_shape), grad_beta.reshape(param_vec_shape)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Optional[np.ndarray],
    running_var: Optional[np.ndarray],
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tuple[Tensor, Optional[np.ndarray], Optional[np.ndarray]]:
    """Batch normalisation over an ``(N, C)`` or ``(N, C, H, W)`` tensor.

    Returns ``(output, new_running_mean, new_running_var)``.  In training
    mode the batch statistics participate in the autograd graph through the
    fused :class:`BatchNormFunction` (one node with an analytic backward);
    in eval mode the running statistics are used as constants.
    """
    reduce_axes, param_shape = _bn_axes(x.ndim)

    if training:
        stats: list = []
        out = BatchNormFunction.apply(
            x, gamma, beta, reduce_axes, param_shape, eps, stats
        )
        new_mean = running_mean
        new_var = running_var
        if running_mean is not None and running_var is not None:
            batch_mean, batch_var = stats
            reduce_count = int(np.prod([x.shape[a] for a in reduce_axes]))
            new_mean, new_var = bn_running_update(
                running_mean, running_var, batch_mean, batch_var, reduce_count, momentum
            )
        return out, new_mean, new_var

    if running_mean is None or running_var is None:
        raise ValueError("eval-mode batch_norm requires running statistics")
    out = _bn_eval_forward(
        x,
        gamma.reshape(*param_shape),
        beta.reshape(*param_shape),
        running_mean.reshape(param_shape),
        running_var.reshape(param_shape),
        eps,
    )
    return out, running_mean, running_var


# Fallback generator for ``dropout`` calls that pass no ``rng``.  A fresh
# unseeded ``default_rng()`` per call would make otherwise fully-seeded
# training runs nondeterministic; stateful callers (``nn.Dropout``) thread a
# per-layer generator derived from the trainer seed instead (see
# ``repro.training.seed_stochastic_layers``).
_FALLBACK_DROPOUT_RNG = np.random.default_rng(0)


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    generator = rng if rng is not None else _FALLBACK_DROPOUT_RNG
    mask = (generator.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * mask


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for 2-D ``x``."""
    from repro.nn.tensor import Linear as LinearFunction

    if bias is None:
        return LinearFunction.apply(x, weight, None)
    return LinearFunction.apply(x, weight, bias)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    return x.flatten(start_dim=start_dim)


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


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray], reduction: str = "mean") -> Tensor:
    """Mean squared error loss."""
    target_t = as_tensor(target)
    diff = prediction - target_t
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    if reduction == "none":
        return squared
    raise ValueError(f"unknown reduction {reduction!r}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def one_hot(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    targets = np.asarray(targets).astype(np.int64).reshape(-1)
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError("targets out of range for one_hot encoding")
    encoded = np.zeros((targets.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(targets.shape[0]), targets] = 1.0
    return encoded


def accuracy(logits: Union[Tensor, np.ndarray], targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=-1)
    targets = np.asarray(targets).reshape(-1)
    if predictions.shape[0] == 0:
        return 0.0
    return float((predictions == targets).mean())
