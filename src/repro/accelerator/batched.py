"""Batched multi-chip evaluation and retraining for B fault-masked chips.

Retraining and evaluating a population of faulty chips is the dominant cost
of the Reduce flow: Step-1 resilience trials, Step-2.5 population triage and
every Step-3 retraining run (with its accuracy checkpoints) need "the DNN
under chip b's fault masks" for many chips.  Under the weight-stationary
mapping both FAP (Zhang et al., VTS 2018) and SalvageDNN-style permutations
reduce to per-layer weight masks, so B chips are just B masked variants of
the same GEMMs — which batch trivially.

:class:`BatchedFaultTrainer` is the one stacked substrate for all of it.  It
stacks the B per-chip weights into ``(B, ...)`` parameters and runs the
*unmodified* model with every parametric layer temporarily routed through a
stacked kernel.  Two regimes are exploited:

* **Shared prefix.** Until the first stacked layer, activations are
  identical for every chip, so the input batch is *not* replicated: the
  first stacked layer lowers its input once (one im2col) and multiplies it
  against all B weight sets in a single wide GEMM.  Every eval pass, and
  every training step of chips that share one seed, runs this way.
* **Folded suffix.** Downstream of the first stacked layer the activations
  diverge per chip; they are carried with a folded ``(B * batch, ...)``
  leading axis and each layer applies stacked per-chip GEMMs.
  Parameter-free per-sample layers (activations, pooling, flatten) run
  unmodified on folded tensors.  Chips with distinct seeds each draw their
  own mini-batches, so their training steps are folded from the input on.

Fault-aware retraining (FAT) of B chips that share their training data and
hyper-parameters runs as one folded training loop with per-chip optimizer
state and stacked float32 keep-multiplier mask enforcement.  Each chip's
data stream (mini-batch order and dropout noise) follows its own seed: one
shared stream when all seeds agree (Step 3), one stream per chip otherwise
(Step-1 trials).  The eval forward (:meth:`BatchedFaultTrainer.evaluate`)
serves the checkpoint evaluations and, through
:func:`evaluate_chip_accuracies`, every forward-only population evaluation.
Chip ``b``'s slice of every stacked GEMM presents the same operands to BLAS
as a serial per-chip pass, so weights, losses and accuracies are
bit-identical to B runs of the serial reference loop
(``tests/helpers.py``: ``ReferenceTrainer``) on a given BLAS build
(tests/test_batched_fat.py and tests/test_batched_eval.py pin this).  It is
the one training loop: :class:`repro.training.Trainer` is a stack of one.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.nn.functional import (
    _bn_axes,
    _pair,
    _bn_eval_forward,
    _bn_train_backward,
    _bn_train_forward,
    _stacked_col2im_t,
    _stacked_im2col_t,
    bn_running_update,
    col2im_t,
    im2col_t,
)
from repro.nn.tensor import Function, is_grad_enabled
from repro.backends import ChainCache, recorded, resolve_backend
from repro.observability import metrics, trace

MaskDict = Dict[str, np.ndarray]

class LoweringCache:
    """Pass-through for the shared-prefix eval lowering: it stores nothing.

    Each eval pass lowers its own test batches (one ``im2col_t`` per batch
    at the first stacked conv) and frees them with the batch.  A byte-capped
    LRU of these lowerings used to live here; on the fast preset it held
    8.2 MB resident at every process's peak to save about 0.1 s of
    re-lowering per run, so its storage was deleted.  The class stays because
    the benchmark harness times the eval lowering by wrapping
    :meth:`get_or_compute`; ``key`` names the lowering for that harness only
    and ``record`` is ignored.
    """

    #: Bytes held between calls: always none.
    nbytes = 0

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Tuple[np.ndarray, int, int]],
        record: bool = True,
    ) -> Tuple[np.ndarray, int, int]:
        """Return ``compute()``: the ``(cols, out_h, out_w)`` lowering."""
        return compute()


_LOWERING = LoweringCache()


@dataclasses.dataclass
class EvalPipeline:
    """Shared configuration of the evaluation path.

    One instance is attached to an experiment context and rides into every
    framework and trainer built from it.  ``backend`` is the compute backend
    the stacked trainers replay their captured eval graphs through (``None``
    = eager, ``"numpy"`` = replay); a campaign engine sets it at the start of
    every run and a socket worker from its welcome frame.  It is a pure
    throughput lever: results are bit-identical either way.
    """

    backend: Optional[str] = None

    def __post_init__(self) -> None:
        resolve_backend(self.backend)


def _conv_output_hw(shape: Tuple[int, ...], module: nn.Module) -> Tuple[int, int]:
    """Spatial output dims of ``module`` on an NCHW input of ``shape``.

    Mirrors :func:`im2col_t`'s arithmetic so fold geometry can be derived
    beside the recorded eval-lowering op, which returns only the columns.
    """
    kh, kw = _pair(module.kernel_size)
    sh, sw = _pair(module.stride)
    ph, pw = _pair(module.padding)
    out_h = (shape[2] + 2 * ph - kh) // sh + 1
    out_w = (shape[3] + 2 * pw - kw) // sw + 1
    return out_h, out_w


class UnsupportedModelError(RuntimeError):
    """The model contains layers the batched fault-aware trainer cannot stack.

    Raised at :class:`BatchedFaultTrainer` construction (never mid-training).
    Every parametric layer family in this repository (``Linear``, ``Conv2d``,
    ``BatchNorm1d/2d``) stacks, so this only fires for user-defined layers
    with trainable parameters the trainer does not know how to fold per chip.
    """

# Stacked per-chip weights cost ``chips x model-size`` floats; population
# helpers evaluate in chunks of this many chips to bound peak memory.
DEFAULT_CHIP_CHUNK = 16


# ---------------------------------------------------------------------------
# Batched multi-chip fault-aware retraining (backward pass)
# ---------------------------------------------------------------------------
#
# Retraining B chips on *shared* mini-batches: every chip sees the same input
# batch, so the first stacked layer consumes one shared GEMM operand (one
# lowering) and everything downstream is carried with a folded
# ``(B * batch, ...)`` leading axis and stacked per-chip GEMMs.  *Every*
# parametric layer is stacked — per-chip gradients diverge all weights after
# the first optimizer step — and the backward pass mirrors the serial autograd
# Functions slice-for-slice:
#
# * each stacked ``np.matmul`` presents chip ``b``'s 2-D slice to BLAS with
#   the same memory characteristics (contiguity / transposition) as the
#   serial ``Linear``/``Conv2dFunction`` GEMM, so slices are bit-identical on
#   a given BLAS build (pinned by tests/test_batched_fat.py);
# * all surrounding ops (activations, pooling, flatten, loss log-softmax) are
#   strictly per-sample and run unmodified on folded tensors;
# * the loss is a per-chip mean, so one backward from the summed per-chip
#   losses delivers exactly the gradient each serial run computes.


def _fat_timer(name: str):
    """Timer attributed to the FAT phase the caller is running in.

    The stacked Functions serve both the training step (grad enabled) and the
    trainer's checkpoint-eval forward (under ``nn.no_grad()``); splitting the
    timers by grad mode keeps eval-side GEMM/lowering cost out of the training
    attribution (``fat.train.*`` vs ``fat.eval.*``).
    """
    phase = "train" if is_grad_enabled() else "eval"
    return metrics.timer(f"fat.{phase}.{name}")


class _StackedLinearFunction(Function):
    """B per-chip affine transforms sharing one autograd node.

    ``shared=True`` (the first stacked layer of a step): ``x`` is the shared
    ``(n, K)`` batch and the forward runs one wide GEMM
    ``(n, K) @ (K, B * N)`` — the per-chip weight columns concatenated — whose
    per-chip slices equal the serial ``x @ W_b.T``.  The backward splits the
    folded gradient per chip and computes the stacked weight gradients
    ``grad_b.T @ x`` against the shared operand.

    ``shared=False``: ``x`` is folded ``(B * n, K)`` and forward/backward are
    stacked batched matmuls whose slices mirror the serial GEMMs exactly.
    """

    capture_name = "stacked_linear"

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,  # (B, N, K)
        bias: Optional[np.ndarray],  # (B, N)
        num_chips: int,
        shared: bool,
    ) -> np.ndarray:
        self.save_for_backward(x, weight, bias is not None, num_chips, shared)
        if shared:
            chips, out_dim, k = weight.shape
            wide = weight.transpose(2, 0, 1).reshape(k, chips * out_dim)  # copy
            out = (x @ wide).reshape(x.shape[0], chips, out_dim).transpose(1, 0, 2)
        else:
            per_chip = x.shape[0] // num_chips
            out = np.matmul(
                x.reshape(num_chips, per_chip, x.shape[1]), weight.transpose(0, 2, 1)
            )
        if bias is not None:
            out = out + bias[:, None, :]
        else:
            out = np.ascontiguousarray(out)
        return out.reshape(out.shape[0] * out.shape[1], out.shape[2])

    def backward(self, grad_output: np.ndarray):
        x, weight, has_bias, num_chips, shared = self.saved
        out_dim = weight.shape[1]
        g = grad_output.reshape(num_chips, grad_output.shape[0] // num_chips, out_dim)
        if shared:
            x_op: np.ndarray = x  # (n, K), broadcast against all chips
        else:
            x_op = x.reshape(num_chips, x.shape[0] // num_chips, x.shape[1])
        # Chip b's slice is the serial ``grad_output.T @ x`` (same transposed
        # view against the same activation operand).
        grad_w = np.matmul(g.transpose(0, 2, 1), x_op)
        grad_x = None
        if not self.needs_input_grad or self.needs_input_grad[0]:
            grad_x_folded = np.matmul(g, weight)  # (B, n, K)
            if shared:
                # The shared operand feeds every chip's branch, so its
                # gradient sums over chips (only reachable when the shared
                # input itself requires grad — never the data batch).
                grad_x = grad_x_folded.sum(axis=0)
            else:
                grad_x = grad_x_folded.reshape(x.shape)
        if has_bias:
            grad_b = g.sum(axis=1)
            return grad_x, grad_w, grad_b
        return grad_x, grad_w


class _StackedConv2dFunction(Function):
    """B per-chip 2-D convolutions sharing one im2col lowering per step.

    The shared first layer lowers the input batch once (``im2col_t``) and
    multiplies it against all B weight matrices in one wide ``(B * O, K) @
    (K, P)`` GEMM; folded layers lower the folded activations straight into a
    ``(B, K, P)`` stack and run stacked GEMMs.  Every GEMM presents chip
    ``b``'s slice (or row block) to BLAS exactly like the serial
    :class:`~repro.nn.functional.Conv2dFunction` does.
    """

    capture_name = "stacked_conv2d"

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,  # (B, O, C, kh, kw)
        bias: Optional[np.ndarray],  # (B, O)
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        num_chips: int,
        shared: bool,
        lowering: Optional[Tuple[np.ndarray, int, int]] = None,
    ) -> np.ndarray:
        chips, out_channels, in_channels, kh, kw = weight.shape
        if x.shape[1] != in_channels:
            raise ValueError(
                f"input has {x.shape[1]} channels but weight expects {in_channels}"
            )
        w2 = weight.reshape(chips, out_channels, -1)
        if shared:
            per_chip = x.shape[0]
            if lowering is not None:
                # Pre-lowered shared input (the eval pass's recorded
                # lowering op); eval runs under no_grad, so it is only read
                # here and never saved for backward.
                cols_op, out_h, out_w = lowering
            else:
                with _fat_timer("im2col_seconds"):
                    cols_op, out_h, out_w = im2col_t(x, (kh, kw), stride, padding)  # (K, P)
            # Wide GEMM: all chips' weight rows in one (B * O, K) @ (K, P)
            # call.  Per-chip row blocks are bit-identical to the serial
            # (O, K) @ (K, P) GEMM on this BLAS build (pinned by tests), and
            # one M-wide call is far faster than B narrow ones.
            with _fat_timer("gemm_seconds"):
                out_t = (w2.reshape(chips * out_channels, -1) @ cols_op).reshape(
                    chips, out_channels, -1
                )
        else:
            per_chip = x.shape[0] // num_chips
            with _fat_timer("im2col_seconds"):
                cols_op, out_h, out_w = _stacked_im2col_t(
                    x, num_chips, (kh, kw), stride, padding
                )
            with _fat_timer("gemm_seconds"):
                out_t = np.matmul(w2, cols_op)  # (B, O, P)
        if bias is not None:
            out_t += bias[:, :, None]
        out = out_t.reshape(chips, out_channels, per_chip, out_h, out_w).transpose(
            0, 2, 1, 3, 4
        )
        if is_grad_enabled():
            self.save_for_backward(
                cols_op, weight, x.shape, (kh, kw), stride, padding,
                out_h, out_w, bias is not None, num_chips, shared,
            )
        out = np.ascontiguousarray(out)
        return out.reshape(chips * per_chip, out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray):
        (cols_op, weight, x_shape, kernel, stride, padding,
         out_h, out_w, has_bias, num_chips, shared) = self.saved
        chips, out_channels = weight.shape[:2]
        per_chip = grad_output.shape[0] // num_chips
        w2 = weight.reshape(chips, out_channels, -1)
        # (B*n, O, oh, ow) -> (B, O, n*oh*ow): chip b's block is the serial
        # channel-major gather of its own gradient.
        g_t = np.ascontiguousarray(
            grad_output.reshape(num_chips, per_chip, out_channels, out_h, out_w)
            .transpose(0, 2, 1, 3, 4)
        ).reshape(num_chips, out_channels, -1)
        # Backward only ever runs during training steps.  The weight
        # gradient is computed transposed, as ``cols @ g.T`` with the long
        # pixel axis P as the contraction: faster than the serial
        # ``g @ cols.T`` orientation at conv shapes (P in the thousands, K
        # and O small), and bit-equal to it on the BLAS build the parity
        # tests pin (tests/test_kernel_parity.py).
        with metrics.timer("fat.train.gemm_seconds"):
            if shared:
                # One wide (K, P) @ (P, B * O) GEMM against the shared columns.
                grad_w = (cols_op @ g_t.reshape(num_chips * out_channels, -1).T).T
            else:
                grad_w = np.matmul(cols_op, g_t.transpose(0, 2, 1)).transpose(0, 2, 1)
        grad_w = grad_w.reshape(weight.shape)  # the transpose-back copy
        grad_x = None
        if not self.needs_input_grad or self.needs_input_grad[0]:
            grad_colsT = np.matmul(w2.transpose(0, 2, 1), g_t)  # (B, K, P)
            if shared:
                grad_x = np.zeros(x_shape, dtype=grad_output.dtype)
                for chip in range(num_chips):
                    grad_x += col2im_t(
                        grad_colsT[chip], x_shape, kernel, stride, padding, out_h, out_w
                    )
            else:
                with _fat_timer("col2im_seconds"):
                    grad_x = _stacked_col2im_t(
                        grad_colsT, x_shape, num_chips, kernel, stride, padding,
                        out_h, out_w,
                    )
        if has_bias:
            grad_bias = g_t.sum(axis=2)
            return grad_x, grad_w, grad_bias
        return grad_x, grad_w


class _StackedNllLossFunction(Function):
    """Per-chip mean NLL of folded log-probabilities: returns ``(B,)`` losses.

    Chip ``b``'s value and gradient replicate the serial
    ``F.cross_entropy(..., reduction="mean")`` arithmetic operation-for-
    operation (including the optional label-smoothing composition), so one
    backward from the summed losses is bit-identical to B serial backwards.
    """

    capture_name = "stacked_nll_loss"

    def forward(
        self,
        log_probs: np.ndarray,
        targets: np.ndarray,
        num_chips: int,
        label_smoothing: float,
    ) -> np.ndarray:
        if log_probs.ndim != 2:
            raise ValueError(
                f"stacked loss expects (B * n, C) log-probabilities, got {log_probs.shape}"
            )
        total_rows = log_probs.shape[0]
        if total_rows % num_chips:
            raise ValueError(
                f"{total_rows} rows do not fold into {num_chips} chips"
            )
        per_chip = total_rows // num_chips
        targets = np.asarray(targets).astype(np.int64).reshape(-1)
        # Shared targets (one batch for every chip) or folded per-chip ones.
        if targets.shape[0] == per_chip:
            tiled = np.tile(targets, num_chips)
        elif targets.shape[0] == total_rows:
            tiled = targets
        else:
            raise ValueError(
                f"targets length {targets.shape[0]} matches neither the per-chip "
                f"batch {per_chip} nor the folded batch {total_rows}"
            )
        picked = log_probs[np.arange(total_rows), tiled].reshape(num_chips, per_chip)
        # Serial: -picked.mean() per chip; mean over each contiguous row uses
        # the same pairwise reduction as the standalone serial vector.
        hard = -picked.mean(axis=1)
        self.save_for_backward(
            log_probs.shape, tiled, per_chip, label_smoothing, log_probs.dtype, num_chips
        )
        if label_smoothing <= 0.0:
            return hard.astype(log_probs.dtype, copy=False)
        if not 0.0 <= label_smoothing < 1.0:
            # Same validation (and message) as the serial ``cross_entropy``.
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        # Mirror the serial composition
        #   hard * (1 - ls) + (-(sum(axis=-1).mean()) * (1 / C)) * ls
        # with the same float32 scalar coercions in the same order.
        num_classes = log_probs.shape[-1]
        w_hard = np.asarray(1.0 - label_smoothing, dtype=log_probs.dtype)
        w_smooth = np.asarray(label_smoothing, dtype=log_probs.dtype)
        inv_c = np.asarray(1.0 / num_classes, dtype=log_probs.dtype)
        smooth = -log_probs.sum(axis=-1).reshape(num_chips, per_chip).mean(axis=1)
        return hard * w_hard + (smooth * inv_c) * w_smooth

    def backward(self, grad_output: np.ndarray):
        shape, tiled, per_chip, label_smoothing, dtype, num_chips = self.saved
        grad = np.zeros(shape, dtype=dtype)
        # Same double-literal division and float32 assignment as the serial
        # NllLossFunction ("mean" reduction over the per-chip batch).
        grad[np.arange(shape[0]), tiled] = -1.0 / per_chip
        g3 = grad.reshape(num_chips, per_chip, shape[1])
        upstream = np.asarray(grad_output, dtype=dtype).reshape(num_chips)
        if label_smoothing <= 0.0:
            g3 *= upstream[:, None, None]
            return (grad,)
        num_classes = shape[1]
        w_hard = np.asarray(1.0 - label_smoothing, dtype=dtype)
        w_smooth = np.asarray(label_smoothing, dtype=dtype)
        inv_c = np.asarray(1.0 / num_classes, dtype=dtype)
        # Hard branch: upstream * (1 - ls) scales the -1/n entries.
        g3 *= (upstream * w_hard)[:, None, None]
        # Smooth branch, replayed through the serial op chain
        # Mul(ls) -> Mul(1/C) -> Neg -> Mean(/n) -> broadcast over (n, C).
        smooth_grad = -((upstream * w_smooth) * inv_c) / per_chip
        g3 += smooth_grad[:, None, None]
        return (grad,)


def stacked_cross_entropy(
    logits: nn.Tensor,
    targets: np.ndarray,
    num_chips: int,
    label_smoothing: float = 0.0,
) -> nn.Tensor:
    """Per-chip cross-entropy of folded ``(B * n, C)`` logits: a ``(B,)`` tensor.

    ``targets`` holds either the ``n`` labels every chip shares or the
    folded ``B * n`` labels of per-chip batches.
    """
    log_probs = logits.log_softmax(axis=-1)
    return _StackedNllLossFunction.apply(
        log_probs, np.asarray(targets), num_chips, float(label_smoothing)
    )


class _StackedBatchNormFunction(Function):
    """B per-chip training-mode batch norms with per-chip-fold statistics.

    Chip ``b``'s fold of the folded ``(B * n, ...)`` activations is
    normalised with its *own* batch statistics using the exact serial fused
    arithmetic — :func:`repro.nn.functional._bn_train_forward` /
    ``_bn_train_backward`` applied to the contiguous per-chip slice — so
    outputs and gradients are bit-identical to B serial
    :class:`~repro.nn.functional.BatchNormFunction` calls.  ``shared=True``
    (a batch norm reached before any other stacked layer) reads the
    un-replicated shared input once per chip and emits a folded output:
    per-chip gamma/beta diverge after the first optimizer step, so a stacked
    batch norm always ends the shared prefix.

    ``stats_out`` collects ``(batch_mean, biased_batch_var)`` per chip for
    the per-chip running-statistics update.
    """

    capture_name = "stacked_batch_norm"

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,  # (B, C) per-chip gamma
        bias: np.ndarray,  # (B, C) per-chip beta
        num_chips: int,
        eps: float,
        shared: bool,
        stats_out: Optional[list] = None,
    ) -> np.ndarray:
        reduce_axes, param_shape = _bn_axes(x.ndim)
        per_chip = x.shape[0] if shared else x.shape[0] // num_chips
        out = np.empty((num_chips * per_chip,) + x.shape[1:], dtype=x.dtype)
        normalised = np.empty_like(out)
        inv_stds: List[np.ndarray] = []
        for chip in range(num_chips):
            fold = slice(chip * per_chip, (chip + 1) * per_chip)
            x_b = x if shared else x[fold]
            out_b, norm_b, inv_std, mean, var = _bn_train_forward(
                x_b,
                weight[chip].reshape(param_shape),
                bias[chip].reshape(param_shape),
                reduce_axes,
                eps,
            )
            out[fold] = out_b
            normalised[fold] = norm_b
            inv_stds.append(inv_std)
            if stats_out is not None:
                stats_out.append((mean.reshape(-1), var.reshape(-1)))
        if is_grad_enabled():
            self.save_for_backward(
                weight, normalised, inv_stds, reduce_axes, param_shape,
                num_chips, per_chip, shared, x.shape,
            )
        return out

    def backward(self, grad_output: np.ndarray):
        (weight, normalised, inv_stds, reduce_axes, param_shape,
         num_chips, per_chip, shared, x_shape) = self.saved
        grad_w = np.empty_like(weight)
        grad_b = np.empty_like(weight)
        # Skip the dx computation entirely for a first-layer batch norm
        # whose input is the data batch (mirrors the conv/linear gating).
        need_x = not self.needs_input_grad or self.needs_input_grad[0]
        grad_x: Optional[np.ndarray] = None
        if need_x:
            if shared:
                # The shared input feeds every chip's branch, so its gradient
                # sums over chips (only reachable when the shared input itself
                # requires grad — never the data batch).
                grad_x = np.zeros(x_shape, dtype=grad_output.dtype)
            else:
                grad_x = np.empty(x_shape, dtype=grad_output.dtype)
        for chip in range(num_chips):
            fold = slice(chip * per_chip, (chip + 1) * per_chip)
            dx_b, dgamma, dbeta = _bn_train_backward(
                grad_output[fold],
                weight[chip].reshape(param_shape),
                normalised[fold],
                inv_stds[chip],
                reduce_axes,
                need_input_grad=need_x,
            )
            grad_w[chip] = dgamma
            grad_b[chip] = dbeta
            if need_x:
                if shared:
                    grad_x += dx_b
                else:
                    grad_x[fold] = dx_b
        return grad_x, grad_w, grad_b


@dataclasses.dataclass
class _StackedNormLayer:
    """One batch-norm layer with B stacked per-chip parameters and statistics.

    Unlike the GEMM layers, batch norm carries trainable per-chip gamma/beta
    *and* non-trainable per-chip running statistics that diverge as soon as
    per-chip activations do — both live here as ``(B, C)`` stacks; the
    module's own buffers are never touched.
    """

    name: str
    module: nn.Module
    weight: "nn.Parameter"  # (B, C) gamma
    bias: "nn.Parameter"  # (B, C) beta
    running_mean: np.ndarray  # (B, C) float32
    running_var: np.ndarray  # (B, C) float32


def _keep_multiplier_kernel(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Keep-multiplier mask enforcement, shared as an IR op kernel."""
    np.multiply(values, keep, out=values)
    return values


def _eval_lowering_kernel(module: nn.Module, name: str):
    """Shared-prefix lowering of the first stacked conv in an eval pass.

    The kernel closes over the conv module only, never the trainer (whose
    chain cache keeps the compiled graph, and so this kernel, alive).
    """

    def lower_cols(data: np.ndarray) -> np.ndarray:
        with metrics.timer("fat.eval.im2col_seconds"):
            cols, _, _ = _LOWERING.get_or_compute(
                name,
                lambda: im2col_t(data, module.kernel_size, module.stride, module.padding),
            )
        return cols

    return lower_cols


def _stacked_bn_eval_kernel(layer: "_StackedNormLayer", num_chips: int, shared: bool):
    """Eval-mode stacked batch norm reading the per-chip stacks live."""
    module = layer.module

    def stacked_bn_eval(data: np.ndarray) -> np.ndarray:
        _, param_shape = _bn_axes(data.ndim)
        per_chip = data.shape[0] if shared else data.shape[0] // num_chips
        out = np.empty((num_chips * per_chip,) + data.shape[1:], dtype=data.dtype)
        for chip in range(num_chips):
            fold = slice(chip * per_chip, (chip + 1) * per_chip)
            x_b = data if shared else data[fold]
            out[fold] = _bn_eval_forward(
                x_b,
                layer.weight.data[chip].reshape(param_shape),
                layer.bias.data[chip].reshape(param_shape),
                layer.running_mean[chip].reshape(param_shape),
                layer.running_var[chip].reshape(param_shape),
                module.eps,
            )
        return out

    return stacked_bn_eval


@dataclasses.dataclass
class _StackedLayer:
    """One parametric layer with its B stacked per-chip weights (and masks)."""

    name: str
    module: nn.Module
    weight: "nn.Parameter"  # (B,) + weight shape
    bias: Optional["nn.Parameter"]  # (B, out) or None
    keep: Optional[np.ndarray]  # (B,) + weight shape float32; masked layers only

    def enforce_weight(self) -> None:
        if self.keep is not None:
            recorded(
                "mask.keep_multiplier",
                (self.weight.data, self.keep),
                _keep_multiplier_kernel,
            )

    def enforce_grad(self) -> None:
        if self.keep is not None and self.weight.grad is not None:
            recorded(
                "mask.keep_multiplier",
                (self.weight.grad, self.keep),
                _keep_multiplier_kernel,
            )


class BatchedFaultTrainer:
    """Fault-aware retraining of B chips in one batched training loop.

    Trains B chips that share the same starting weights (the model's current
    state), training data, hyper-parameters and epoch budget but differ in
    their fault masks and, optionally, their seeds: every optimizer step runs
    one folded forward/backward in which each GEMM is stacked over chips,
    followed by per-chip optimizer updates on the stacked parameters (the
    optimizer's elementwise update math over a ``(B, ...)`` stack *is* B
    independent per-chip updates; gradient clipping is the only cross-element
    op and uses :func:`repro.nn.optim.clip_grad_norm_per_chip`).

    ``seeds`` gives one training seed per chip (default: ``config.seed`` for
    every chip).  Chips with one common seed share one data stream, so each
    step feeds the un-replicated batch through the shared prefix.  Distinct
    seeds give every chip its own train loader and dropout generators, each
    seeded as a one-seed stack with that seed seeds its stream, and each step
    feeds the chips' folded ``(B * n, ...)`` batches; evaluation input is
    still shared, so eval passes keep the shared prefix.

    Exact serial equivalence: chip ``b``'s weights, losses and accuracies are
    bit-identical to a serial reference run
    (``tests/helpers.py``: ``ReferenceTrainer(model, ..., masks=mask_sets[b])``)
    whose config carries chip ``b``'s seed, on this BLAS build
    (tests/test_batched_fat.py pins this).  The model itself is never
    modified: stacked copies are trained, and per-chip results are read back
    with :meth:`chip_state_dict`.

    Supported models are compositions of ``Linear``/``Conv2d`` (stacked
    GEMMs), ``BatchNorm1d/2d`` (stacked per-chip gamma/beta and running
    statistics with per-chip-fold batch statistics — see
    :class:`_StackedBatchNormFunction`), parameter-free per-sample layers
    (activations, pooling, flatten) and ``Dropout`` (noise drawn from each
    data stream's trainer-seeded generators, as in the serial runs).  Only
    unknown user-defined parametric layers raise
    :class:`UnsupportedModelError`.

    The trainer is also the forward-only population evaluator: constructing
    it and calling :meth:`evaluate` without training is what
    :func:`evaluate_chip_accuracies` does per chip chunk.
    """

    def __init__(
        self,
        model: nn.Module,
        mask_sets: Sequence[MaskDict],
        train_data: Union[Dataset, DataLoader],
        eval_data: Union[Dataset, DataLoader],
        config=None,
        eval_pipeline: Optional[EvalPipeline] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        from repro.training import (
            TrainingConfig,
            _as_loader,
            require_nonempty_train_loader,
            seed_stochastic_layers,
        )
        from repro.utils.rng import derive_seed

        if not mask_sets:
            raise ValueError("mask_sets must contain at least one chip")
        key_set = set(mask_sets[0])
        for index, masks in enumerate(mask_sets[1:], start=1):
            if set(masks) != key_set:
                raise ValueError(
                    f"mask set {index} has layer keys {sorted(masks)} != {sorted(key_set)}"
                )
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self.num_chips = len(mask_sets)
        seeds = [self.config.seed] * self.num_chips if seeds is None else list(seeds)
        if len(seeds) != self.num_chips:
            raise ValueError(f"got {len(seeds)} seeds for {self.num_chips} chips")
        # One data stream (train loader + dropout generators) per distinct
        # seed: a single shared stream when every chip has the same seed,
        # otherwise one stream per chip.
        self._per_chip_streams = len(set(seeds)) > 1
        stream_seeds = seeds if self._per_chip_streams else seeds[:1]
        if self._per_chip_streams and isinstance(train_data, DataLoader):
            raise ValueError(
                "per-chip seeds need a Dataset to build one train loader per chip, "
                "not a DataLoader"
            )
        self._train_loaders = [
            _as_loader(
                train_data,
                batch_size=self.config.batch_size,
                shuffle=self.config.shuffle,
                seed=derive_seed(seed, "train-loader"),
            )
            for seed in stream_seeds
        ]
        require_nonempty_train_loader(self._train_loaders[0])
        self.eval_data = eval_data
        self.batches_per_epoch = len(self._train_loaders[0])
        self.steps_taken = 0
        # True while the current forward pass is still on the shared
        # (un-replicated) input; flipped by the first stacked layer.
        self._shared_prefix = True
        pipeline = eval_pipeline if eval_pipeline is not None else EvalPipeline()
        # Captured-graph execution of the checkpoint-eval hot path (training
        # steps always run eagerly: they drive autograd).  Captured eval
        # graphs read the stacked weights, biases and running statistics
        # *live*, so replay tracks every optimizer step and mask enforcement
        # between checkpoints.
        self._backend = resolve_backend(pipeline.backend)
        self._eval_chain_cache = (
            ChainCache(self._backend, name="fat.eval")
            if self._backend is not None
            else None
        )

        self._layers: List[_StackedLayer] = []
        self._norm_layers: List[_StackedNormLayer] = []
        self._dropouts: List[nn.Module] = []
        parameters: List[nn.Parameter] = []
        for name, module in model.named_modules():
            if isinstance(module, nn.Dropout):
                self._dropouts.append(module)
                continue
            direct = [p for p in module._parameters.values() if p is not None]
            if not direct:
                continue
            if isinstance(module, nn.BatchNorm2d):  # BatchNorm1d subclasses it
                if name in key_set:
                    raise ValueError(
                        f"layer {name!r} is a batch norm and cannot carry a fault mask"
                    )
                weight_param = nn.Parameter(
                    np.repeat(module.weight.data[None], self.num_chips, axis=0)
                )
                bias_param = nn.Parameter(
                    np.repeat(module.bias.data[None], self.num_chips, axis=0)
                )
                self._norm_layers.append(
                    _StackedNormLayer(
                        name=name,
                        module=module,
                        weight=weight_param,
                        bias=bias_param,
                        running_mean=np.repeat(
                            np.asarray(module.running_mean)[None], self.num_chips, axis=0
                        ),
                        running_var=np.repeat(
                            np.asarray(module.running_var)[None], self.num_chips, axis=0
                        ),
                    )
                )
                # Same order as ``model.parameters()`` (weight before bias).
                parameters.append(weight_param)
                parameters.append(bias_param)
                continue
            if not isinstance(module, (nn.Linear, nn.Conv2d)):
                raise UnsupportedModelError(
                    f"layer {name!r} ({type(module).__name__}) has trainable "
                    "parameters but is not a stackable Linear/Conv2d/BatchNorm; "
                    "batched fault-aware retraining cannot fold it per chip"
                )
            weight = module.weight.data
            stack = np.empty((self.num_chips,) + weight.shape, dtype=weight.dtype)
            keep: Optional[np.ndarray] = None
            if name in key_set:
                keep = np.empty((self.num_chips,) + weight.shape, dtype=np.float32)
            for chip, masks in enumerate(mask_sets):
                if name in masks:
                    mask = masks[name]
                    if mask.shape != weight.shape:
                        raise ValueError(
                            f"mask shape {mask.shape} does not match weight shape "
                            f"{weight.shape} for layer {name!r}"
                        )
                    # np.where keeps masked entries exact +0.0, bit-identical
                    # to the serial ``weight.data[mask] = 0.0`` enforcement.
                    stack[chip] = np.where(mask, weight.dtype.type(0), weight)
                    keep[chip] = np.where(mask, np.float32(0.0), np.float32(1.0))
                else:
                    stack[chip] = weight
            weight_param = nn.Parameter(stack)
            bias_param: Optional[nn.Parameter] = None
            if module.bias is not None:
                bias_param = nn.Parameter(
                    np.repeat(module.bias.data[None], self.num_chips, axis=0)
                )
            self._layers.append(
                _StackedLayer(
                    name=name, module=module, weight=weight_param,
                    bias=bias_param, keep=keep,
                )
            )
            # Same order as ``model.parameters()`` (weight before bias per
            # module) so per-chip gradient clipping accumulates norms in the
            # serial order.
            parameters.append(weight_param)
            if bias_param is not None:
                parameters.append(bias_param)
        known = {layer.name for layer in self._layers}
        for name in key_set:
            if name not in known:
                raise KeyError(f"mask refers to unknown layer {name!r}")
        self._masked_layers = [layer for layer in self._layers if layer.keep is not None]
        self.optimizer = self.config.build_optimizer(parameters)
        # Dropout draws from trainer-seeded per-layer generators, reseeded
        # from each stream's seed as a one-stream trainer would reseed them:
        # ``_dropout_rngs[stream][i]`` feeds ``_dropouts[i]``.
        self._dropout_rngs: List[List[np.random.Generator]] = []
        for seed in stream_seeds:
            seed_stochastic_layers(self.model, seed)
            self._dropout_rngs.append([module._rng for module in self._dropouts])
        # Base state for chip_state_dict (stacked slices override trainables).
        self._base_state = model.state_dict()

    # -- batched forward plumbing --------------------------------------------

    @property
    def epochs_taken(self) -> float:
        return self.steps_taken / self.batches_per_epoch

    def _linear_forward(self, layer: _StackedLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            if x.ndim != 2:
                x = x.flatten(start_dim=1)
            shared = self._shared_prefix
            self._shared_prefix = False
            return _StackedLinearFunction.apply(
                x, layer.weight, layer.bias, self.num_chips, shared
            )

        return forward

    def _conv_forward(self, layer: _StackedLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            module = layer.module
            shared = self._shared_prefix
            self._shared_prefix = False
            lowering = None
            if shared and not is_grad_enabled():
                # Eval pass: the shared input is lowered by its own recorded
                # op, and the columns die with the batch.
                out_h, out_w = _conv_output_hw(x.shape, module)
                cols = recorded(
                    "fat.eval_lowering",
                    (x.data,),
                    _eval_lowering_kernel(module, layer.name),
                )
                lowering = (cols, out_h, out_w)
            return _StackedConv2dFunction.apply(
                x, layer.weight, layer.bias,
                module.stride, module.padding, self.num_chips, shared, lowering,
            )

        return forward

    def _norm_forward(self, layer: _StackedNormLayer):
        def forward(x: nn.Tensor) -> nn.Tensor:
            module = layer.module
            shared = self._shared_prefix
            self._shared_prefix = False
            if module.training:
                stats: List[Tuple[np.ndarray, np.ndarray]] = []
                out = _StackedBatchNormFunction.apply(
                    x, layer.weight, layer.bias, self.num_chips, module.eps, shared, stats
                )
                # Per-chip running-statistics update: the same EMA arithmetic
                # the serial layer applies, on chip b's own batch statistics.
                reduce_axes, _ = _bn_axes(x.ndim)
                per_chip = x.shape[0] if shared else x.shape[0] // self.num_chips
                reduce_count = per_chip
                for axis in reduce_axes[1:]:
                    reduce_count *= x.shape[axis]
                for chip, (batch_mean, batch_var) in enumerate(stats):
                    new_mean, new_var = bn_running_update(
                        layer.running_mean[chip],
                        layer.running_var[chip],
                        batch_mean,
                        batch_var,
                        reduce_count,
                        module.momentum,
                    )
                    layer.running_mean[chip] = new_mean
                    layer.running_var[chip] = new_var
                return out
            # Eval mode: per-chip running statistics as constants, through
            # the same arithmetic helper as the serial eval path (slice for
            # slice bit-identical).  Evaluation runs under no_grad, so no
            # autograd node is needed.  Recorded as one composite IR node
            # whose kernel reads the stacked parameters and running
            # statistics live, so replayed checkpoints see post-step values.
            out = recorded(
                "eval.stacked_bn",
                (x.data,),
                _stacked_bn_eval_kernel(layer, self.num_chips, shared),
            )
            return nn.Tensor(out)

        return forward

    def _dropout_forward(self, index: int, module: nn.Module):
        def forward(x: nn.Tensor) -> nn.Tensor:
            if not module.training or module.p == 0.0:
                return x
            rngs = [stream[index] for stream in self._dropout_rngs]
            if self._shared_prefix:
                # Shared input (hence one shared stream): one draw, exactly
                # the serial call.
                return F.dropout(x, module.p, training=True, rng=rngs[0])
            # Folded activations: each stream draws its per-sample mask at the
            # same position as its serial run; one shared stream is tiled
            # over chips.
            per_chip = x.shape[0] // self.num_chips
            shape = (per_chip,) + x.shape[1:]
            masks = [
                (rng.random(shape) >= module.p).astype(x.dtype) / (1.0 - module.p)
                for rng in rngs
            ]
            if len(masks) == 1:
                folded = np.tile(masks[0], (self.num_chips,) + (1,) * (x.ndim - 1))
            else:
                folded = np.concatenate(masks)
            return x * folded

        return forward

    @contextlib.contextmanager
    def _patched(self):
        """Route stacked layers (and dropout) through their batched forwards."""
        patched: List[nn.Module] = []
        try:
            for layer in self._layers:
                if "forward" in layer.module.__dict__:
                    raise RuntimeError(
                        f"layer {layer.name!r} already has a patched forward "
                        "(nested batched execution is not supported)"
                    )
                make = (
                    self._linear_forward
                    if isinstance(layer.module, nn.Linear)
                    else self._conv_forward
                )
                object.__setattr__(layer.module, "forward", make(layer))
                patched.append(layer.module)
            for norm in self._norm_layers:
                if "forward" in norm.module.__dict__:
                    raise RuntimeError(
                        f"layer {norm.name!r} already has a patched forward "
                        "(nested batched execution is not supported)"
                    )
                object.__setattr__(norm.module, "forward", self._norm_forward(norm))
                patched.append(norm.module)
            for index, module in enumerate(self._dropouts):
                if "forward" in module.__dict__:
                    raise RuntimeError("dropout layer already has a patched forward")
                object.__setattr__(module, "forward", self._dropout_forward(index, module))
                patched.append(module)
            yield
        finally:
            for module in reversed(patched):
                object.__delattr__(module, "forward")

    # -- training ------------------------------------------------------------

    def _train_steps(
        self,
        num_steps: int,
        readout_steps: Sequence[int] = (),
        at_readout: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> np.ndarray:
        """Run ``num_steps`` batched steps; returns per-chip mean train loss.

        The steps draw from one live iterator over the train data: a new pass
        starts only when the previous one is exhausted.  ``readout_steps``
        are ascending step counts below ``num_steps`` (relative to this
        call).  At the ``index``-th one the loop pauses — outside the batched
        forwards, so the callback may evaluate — and ``at_readout(index,
        losses)`` sees the stacks at that step, with ``losses`` each chip's
        mean train loss so far: exactly what a separate call stopping there
        would return.  The iterator survives the pause, so a readout never
        moves the training trajectory.
        """
        if num_steps <= 0:
            return np.full(self.num_chips, np.nan)
        losses: List[np.ndarray] = []
        batches = iter(())
        with trace.span("fat.train_steps", steps=num_steps, chips=self.num_chips):
            for index, stop in enumerate([*readout_steps, num_steps]):
                self.model.train()
                with self._patched():
                    while len(losses) < stop:
                        batch = next(batches, None)
                        if batch is None:
                            batches = zip(*self._train_loaders)
                            continue
                        if self._per_chip_streams:
                            # Each chip's own batch, folded: no shared prefix.
                            inputs = nn.Tensor(np.concatenate([x.data for x, _ in batch]))
                            targets = np.concatenate([y for _, y in batch])
                            self._shared_prefix = False
                        else:
                            inputs, targets = batch[0]
                            self._shared_prefix = True
                        logits = self.model(inputs)
                        step_losses = stacked_cross_entropy(
                            logits, targets, self.num_chips,
                            label_smoothing=self.config.label_smoothing,
                        )
                        self.optimizer.zero_grad()
                        step_losses.sum().backward()
                        for layer in self._masked_layers:
                            layer.enforce_grad()
                        if self.config.grad_clip is not None:
                            nn.clip_grad_norm_per_chip(
                                self.optimizer.parameters,
                                self.config.grad_clip,
                                self.num_chips,
                            )
                        self.optimizer.step()
                        for layer in self._masked_layers:
                            layer.enforce_weight()
                        losses.append(step_losses.data.astype(np.float64))
                        self.steps_taken += 1
                if stop < num_steps:
                    at_readout(index, self._mean_losses(losses))
        return self._mean_losses(losses)

    def _mean_losses(self, losses: List[np.ndarray]) -> np.ndarray:
        """Each chip's mean over per-step ``(B,)`` loss vectors."""
        stacked = np.asarray(losses)  # (steps, B)
        # Serial records python floats and takes np.mean over the step list;
        # reduce each chip's contiguous step vector the same way.
        return np.array(
            [np.mean(np.ascontiguousarray(stacked[:, chip])) for chip in range(self.num_chips)]
        )

    def _eval_forward_all_chips(self, inputs: np.ndarray) -> np.ndarray:
        """Per-chip logits for one eval batch: ``(B, n, classes)``."""
        self._shared_prefix = True
        logits = self.model(nn.Tensor(inputs)).data
        chips = self.num_chips
        if self._shared_prefix:
            # No stacked layer executed: all chips share logits.
            return recorded(
                "eval.broadcast_logits",
                (logits,),
                lambda l: np.broadcast_to(l[None], (chips,) + l.shape),
            )
        n = inputs.shape[0]
        return recorded(
            "eval.unfold_logits", (logits,), lambda l: l.reshape(chips, n, -1)
        )

    def evaluate(self) -> List[float]:
        """Per-chip top-1 accuracy on the eval data (equals ``evaluate_accuracy``).

        One batched eval pass over the current stacked weights, in
        training-size batches (``config.batch_size``), so no eval tensor is
        larger than a training step's.
        """
        from repro.training import _as_eval_loader

        loader = _as_eval_loader(self.eval_data, batch_size=self.config.batch_size)
        was_training = self.model.training
        self.model.eval()
        correct = np.zeros(self.num_chips, dtype=np.int64)
        total = 0
        try:
            with trace.span(
                "fat.eval_checkpoint", chips=self.num_chips
            ), nn.no_grad(), self._patched():
                for inputs, targets in loader:
                    data = inputs.data
                    n = data.shape[0]
                    if self._eval_chain_cache is None:
                        logits = self._eval_forward_all_chips(data)
                    else:
                        logits = self._eval_chain_cache.run(
                            (data,), self._eval_forward_all_chips
                        )
                    predictions = logits.argmax(axis=-1)
                    correct += (predictions == np.asarray(targets)[None, :]).sum(axis=1)
                    total += n
        finally:
            if was_training:
                self.model.train()
        if total == 0:
            return [0.0] * self.num_chips
        return [int(c) / total for c in correct]

    def train(
        self,
        epochs: float,
        eval_checkpoints: Optional[Sequence[float]] = None,
        include_initial: bool = True,
        in_stream: bool = False,
    ):
        """Train all chips for ``epochs``; returns one history per chip.

        ``eval_checkpoints`` are *cumulative* epoch amounts (relative to the
        start of this call) at which to record accuracy; the final epoch
        amount is always recorded, and ``include_initial=True`` records the
        accuracy before any step too.  Each chip's records equal those of its
        serial reference run (``tests/helpers.py``: ``ReferenceTrainer``).

        ``in_stream=True`` makes every checkpoint a *readout* of one
        uninterrupted pass instead of the end of a segment: the loader is
        never restarted at a checkpoint, and each record's train loss is the
        mean since the start of the call.  The record at checkpoint ``b`` then
        equals the single record of a separate ``train(b,
        include_initial=False)`` on a fresh trainer — epochs, steps, loss and
        accuracy — so one pass to the largest budget answers every smaller
        budget (Step 3 reads all of a chip's policy budgets this way).

        Every checkpoint is evaluated live, when training reaches it: in
        segment mode after its segment, with ``in_stream`` at a pause of the
        pass (outside the batched forwards).  Evaluation never mutates
        training state — it runs under ``no_grad`` on the current stacks over
        the unshuffled eval loader — so the training step sequence and RNG
        streams are those of an unevaluated run.  Checkpoints that quantize
        to the same optimizer step carry identical stacks, so they share one
        :meth:`evaluate` pass (fine epoch grids at small batches-per-epoch
        counts do this constantly); each shared pass counts one
        ``fat.eval.checkpoints_deduped``.
        """
        from repro.training import CheckpointRecord, TrainingHistory, epochs_to_steps

        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        histories = [TrainingHistory() for _ in range(self.num_chips)]
        checkpoints = sorted(set(float(c) for c in (eval_checkpoints or []) if 0.0 < c <= epochs))
        if epochs > 0 and (not checkpoints or abs(checkpoints[-1] - epochs) > 1e-12):
            checkpoints.append(float(epochs))
        accuracies_by_step: Dict[int, List[float]] = {}

        def record_checkpoint(epochs_at: float, train_losses: np.ndarray) -> None:
            steps = self.steps_taken
            if steps not in accuracies_by_step:
                accuracies_by_step[steps] = self.evaluate()
            elif metrics.enabled:
                metrics.counter("fat.eval.checkpoints_deduped").inc()
            accuracies = accuracies_by_step[steps]
            for chip, history in enumerate(histories):
                history.add(
                    CheckpointRecord(
                        epochs=epochs_at,
                        steps=steps,
                        train_loss=float(train_losses[chip]),
                        eval_accuracy=accuracies[chip],
                    )
                )

        if include_initial:
            record_checkpoint(0.0, np.full(self.num_chips, np.nan))
        targets = [epochs_to_steps(c, self.batches_per_epoch) for c in checkpoints]
        if in_stream and checkpoints:
            readout_steps = sorted(set(targets))

            def at_readout(index: int, train_losses: np.ndarray) -> None:
                for checkpoint, target in zip(checkpoints, targets):
                    if target == readout_steps[index]:
                        record_checkpoint(checkpoint, train_losses)

            final_losses = self._train_steps(
                readout_steps[-1], readout_steps[:-1], at_readout
            )
            at_readout(len(readout_steps) - 1, final_losses)
        else:
            previous_steps = 0
            for checkpoint, target_steps in zip(checkpoints, targets):
                step_delta = target_steps - previous_steps
                if step_delta > 0:
                    # Each segment restarts the loader, so a checkpoint here
                    # is not the state a separate ``train(checkpoint)`` ends
                    # in.  Step 1 still relies on this; ROADMAP's
                    # trajectory-neutral-checkpoint item moves it onto
                    # ``in_stream`` readouts and deletes the restart.
                    train_losses = self._train_steps(step_delta)
                else:
                    train_losses = np.full(self.num_chips, np.nan)
                previous_steps = target_steps
                record_checkpoint(checkpoint, train_losses)
        return histories

    # -- results -------------------------------------------------------------

    def chip_state_dict(self, chip: int) -> Dict[str, np.ndarray]:
        """The model state dict chip ``chip``'s serial run would end with."""
        if not 0 <= chip < self.num_chips:
            raise IndexError(f"chip {chip} out of range for {self.num_chips} chips")
        state = {name: value.copy() for name, value in self._base_state.items()}
        for layer in self._layers:
            prefix = f"{layer.name}." if layer.name else ""
            state[f"{prefix}weight"] = layer.weight.data[chip].copy()
            if layer.bias is not None:
                state[f"{prefix}bias"] = layer.bias.data[chip].copy()
        for norm in self._norm_layers:
            prefix = f"{norm.name}." if norm.name else ""
            state[f"{prefix}weight"] = norm.weight.data[chip].copy()
            state[f"{prefix}bias"] = norm.bias.data[chip].copy()
            state[f"{prefix}running_mean"] = norm.running_mean[chip].copy()
            state[f"{prefix}running_var"] = norm.running_var[chip].copy()
        return state


def evaluate_chip_accuracies(
    model: nn.Module,
    data: Union[Dataset, DataLoader],
    mask_sets: Sequence[MaskDict],
    config=None,
    chip_chunk: int = DEFAULT_CHIP_CHUNK,
    eval_pipeline: Optional[EvalPipeline] = None,
) -> List[float]:
    """Accuracy of ``model`` under each chip's masks, in stacked chip chunks.

    The forward-only population evaluation behind Step-2.5 triage, the one
    place Step 3's initial accuracies come from: each chunk of up to
    ``chip_chunk`` mask sets is one :meth:`BatchedFaultTrainer.evaluate` pass
    (the trainer only reads ``data``, so it doubles as the never-iterated
    train set).  Peak memory is bounded by one chunk's stacks
    (``chip_chunk`` stacked model copies: each chunk's trainer is freed by
    reference counting before the next one is built) plus one eval batch's
    working set, regardless of population size; nothing outlives the call.

    The eval batch is ``config.batch_size``, exactly as in Step-3
    checkpoint evaluation, and every pass replays through ``eval_pipeline``'s
    compute backend (a fresh eager :class:`EvalPipeline` when not supplied).
    """
    if not mask_sets:
        raise ValueError("mask_sets must contain at least one chip")
    if chip_chunk < 1:
        raise ValueError(f"chip_chunk must be >= 1, got {chip_chunk}")
    pipeline = eval_pipeline if eval_pipeline is not None else EvalPipeline()
    accuracies: List[float] = []
    for start in range(0, len(mask_sets), chip_chunk):
        accuracies.extend(
            BatchedFaultTrainer(
                model,
                mask_sets[start:start + chip_chunk],
                data,
                data,
                config=config,
                eval_pipeline=pipeline,
            ).evaluate()
        )
    return accuracies
