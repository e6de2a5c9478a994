"""Shared test helpers (kept outside conftest so tests can import them)."""

from __future__ import annotations

import numpy as np


def numeric_gradient(func, x, eps=1e-4):
    """Central-difference numerical gradient of a scalar function of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        plus = x.copy()
        minus = x.copy()
        plus[index] += eps
        minus[index] -= eps
        grad[index] = (func(plus) - func(minus)) / (2.0 * eps)
    return grad


def serial_resilience_accuracies(analyzer):
    """Step-1 accuracies grid of ``analyzer``, one serial ``Trainer`` per cell.

    The reference the stacked :meth:`ResilienceAnalyzer.run` must equal bit
    for bit: every (rate, trial) cell restores the pre-trained weights,
    applies its fault map's FAP masks and retrains through the serial trainer
    under its own trial seed, recording [0.0] + the epoch checkpoints.  A
    fault rate of zero is the clean accuracy throughout.
    """
    import dataclasses

    from repro.mitigation.fap import build_fap_masks
    from repro.training import Trainer, evaluate_accuracy

    config = analyzer.config
    model = analyzer.model
    model.load_state_dict(analyzer.pretrained_state)
    clean = evaluate_accuracy(model, analyzer.bundle.test)
    grid = np.zeros(
        (len(config.fault_rates), config.trials_per_rate, 1 + len(config.epoch_checkpoints))
    )
    for rate_index, fault_rate in enumerate(config.fault_rates):
        for trial in range(config.trials_per_rate):
            if fault_rate == 0.0:
                grid[rate_index, trial] = clean
                continue
            trial_seed, fault_map = analyzer._trial_fault_map(fault_rate, trial)
            model.load_state_dict(analyzer.pretrained_state)
            trainer = Trainer(
                model,
                analyzer.bundle.train,
                analyzer.bundle.test,
                config=dataclasses.replace(config.training, seed=trial_seed),
                masks=build_fap_masks(model, fault_map),
            )
            history = trainer.train(
                config.max_epochs,
                eval_checkpoints=list(config.epoch_checkpoints),
                include_initial=True,
            )
            grid[rate_index, trial] = history.accuracies
    model.load_state_dict(analyzer.pretrained_state)
    return grid


def reference_clip_grad_norm_per_chip(params, max_norm, num_chips):
    """The per-chip loop ``nn.clip_grad_norm_per_chip`` must equal bit for bit.

    Chip by chip: a float64 norm over every parameter's ``[chip]`` slice in
    parameter order, then an in-place rescale of the slices by a Python-float
    scale when the norm exceeds ``max_norm``.
    """
    import math

    norms = np.empty(num_chips, dtype=np.float64)
    for chip in range(num_chips):
        total = math.sqrt(
            sum(float((p.grad[chip].astype(np.float64) ** 2).sum()) for p in params)
        )
        norms[chip] = total
        if total > max_norm:
            scale = max_norm / (total + 1e-12)
            for p in params:
                np.multiply(p.grad[chip], scale, out=p.grad[chip])
    return norms


def _padded_windows(x, kernel_size, stride, padding):
    """Zero-padded ``(N, C, out_h, out_w, kh, kw)`` window view of NCHW ``x``."""
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows[:, :, ::sh, ::sw, :, :]


def reference_im2col_t(x, kernel_size, stride, padding):
    """The single strided K-major copy ``F.im2col_t`` must equal bit for bit.

    ``colsT[(c, i, j), (n, y, x)]`` is the padded input at
    ``(n, c, y * sh + i, x * sw + j)``.
    """
    windows = _padded_windows(x, kernel_size, stride, padding)
    n, c, out_h, out_w, kh, kw = windows.shape
    colsT = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * out_h * out_w)
    return np.ascontiguousarray(colsT), out_h, out_w


def reference_stacked_im2col_t(x, num_chips, kernel_size, stride, padding):
    """The one-copy ``(B, K, P)`` stacked lowering (chip ``b`` is its own
    :func:`reference_im2col_t`)."""
    windows = _padded_windows(x, kernel_size, stride, padding)
    total, c, out_h, out_w, kh, kw = windows.shape
    per_chip = total // num_chips
    split = windows.reshape((num_chips, per_chip) + windows.shape[1:])
    stack = np.empty((num_chips, c * kh * kw, per_chip * out_h * out_w), dtype=x.dtype)
    dest = stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    np.copyto(dest, split.transpose(0, 2, 5, 6, 1, 3, 4))
    return stack, out_h, out_w


def reference_col2im_t(colsT, x_shape, kernel_size, stride, padding, out_h, out_w):
    """The NCHW phase sweep that ``F.col2im_t`` must equal bit for bit.

    Every input element starts at ``+0.0`` and receives its window
    contributions one ``(i, j)`` phase at a time, in row-major order.
    """
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = x_shape
    dx = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=colsT.dtype)
    colsK = colsT.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            view = dx[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            view += colsK[:, i, j].transpose(1, 0, 2, 3)
    return dx[:, :, ph:ph + h, pw:pw + w]


def reference_stacked_col2im_t(
    cols_stack, x_shape, num_chips, kernel_size, stride, padding, out_h, out_w
):
    """The folded multi-chip NCHW phase sweep (same add order per chip)."""
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    total, c, h, w = x_shape
    per_chip = total // num_chips
    dx = np.zeros((total, c, h + 2 * ph, w + 2 * pw), dtype=cols_stack.dtype)
    dx_stack = dx.reshape(num_chips, per_chip, c, h + 2 * ph, w + 2 * pw)
    colsK = cols_stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            view = dx_stack[:, :, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            view += colsK[:, :, i, j].transpose(0, 2, 1, 3, 4)
    return dx[:, :, ph:ph + h, pw:pw + w]


def reference_max_pool2d(x, kernel_size, stride):
    """``(out, argmax)`` of the boolean-scatter max-pool training forward.

    A strictly greater value replaces the running maximum, so ties go to the
    first row-major window position.
    """
    kh, kw = kernel_size
    sh, sw = stride
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    out = None
    argmax = None
    for i in range(kh):
        for j in range(kw):
            phase = x[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            if out is None:
                out = phase.copy()
                argmax = np.zeros(out.shape, dtype=np.int16)
            else:
                better = phase > out
                np.maximum(out, phase, out=out)
                argmax[better] = i * kw + j
    return out, argmax
