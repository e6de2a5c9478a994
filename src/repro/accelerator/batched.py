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
model as a *layer program* built once from its leaf layers: a list of
forward/backward pairs around kernels, run in the layers' registration order
(see "The layer program" below).  Models have no ``forward`` of their own:
this program is the only one in the package.  Two regimes are exploited:

* **Shared prefix.** Until the first stacked layer, activations are
  identical for every chip, so the input batch is *not* replicated: the
  first stacked layer lowers its input once (one im2col) and multiplies it
  against all B weight sets in a single wide GEMM.  Every eval pass, and
  every training step of chips that share one seed, runs this way.
* **Folded suffix.** Downstream of the first stacked layer the activations
  diverge per chip; they are carried with a folded ``(B * batch, ...)``
  leading axis and each layer applies stacked per-chip GEMMs.
  Parameter-free per-sample layers (activations, pooling, flatten) run
  their serial kernels on folded arrays.  Chips with distinct seeds each
  draw their own mini-batches, so their training steps are folded from the
  input on.

Fault-aware retraining (FAT) of B chips that share their training data and
hyper-parameters runs as one folded training loop with per-chip optimizer
state and stacked float32 keep-multiplier mask enforcement.  Each chip's
mini-batch order follows its own seed: one shared stream when all seeds
agree (Step 3), one stream per chip otherwise (Step-1 trials).  The eval
forward (:meth:`BatchedFaultTrainer.evaluate`) serves the checkpoint
evaluations and, through :func:`evaluate_chip_accuracies`, every
forward-only population evaluation.
Chip ``b``'s slice of every stacked GEMM presents the same operands to BLAS
as a serial per-chip pass, so weights, losses and accuracies are
bit-identical to B runs of the serial reference loop
(``tests/helpers.py``: ``ReferenceTrainer``, on the serial autograd tape of
``tests/serial.py``) on a given BLAS build (tests/test_batched_fat.py and
tests/test_batched_eval.py pin this).  It is the one training loop:
:class:`repro.training.Trainer` is a stack of one.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.data.dataloader import DataLoader
from repro.data.dataset import TensorDataset
from repro.nn.functional import (
    MaxPool2dFunction,
    _stacked_col2im_t,
    _stacked_im2col_t,
    im2col_t,
    max_pool2d_inference,
)
from repro.nn.tensor import Function, LogSoftmax, ReLU, Reshape
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


class UnsupportedModelError(RuntimeError):
    """The model contains a layer the stacked trainer's layer program cannot run.

    Raised at :class:`BatchedFaultTrainer` construction (never mid-training)
    for any leaf layer that is not a ``Linear``, ``Conv2d``, ``ReLU``,
    ``MaxPool2d`` or ``Flatten``, and for any container that holds
    parameters of its own: the message names its path and class.
    """


# ---------------------------------------------------------------------------
# Stacked kernels
# ---------------------------------------------------------------------------
#
# *Every* parametric layer is stacked — per-chip gradients diverge all weights
# after the first optimizer step — and the kernels mirror the serial oracle's
# ops (tests/serial.py) slice-for-slice:
#
# * each stacked ``np.matmul`` presents chip ``b``'s 2-D slice to BLAS with
#   the same memory characteristics (contiguity / transposition) as the
#   serial ``Linear``/``Conv2dFunction`` GEMM, so slices are bit-identical on
#   a given BLAS build (pinned by tests/test_batched_fat.py);
# * all surrounding ops (activations, pooling, flatten, loss log-softmax) are
#   strictly per-sample and run their serial kernels on folded arrays;
# * the loss is a per-chip mean, so a backward from an upstream gradient of
#   ones (that of the summed per-chip losses) delivers exactly the gradient
#   each serial run computes.


class _StackedLinearFunction(Function):
    """B per-chip affine transforms in one kernel context.

    ``shared=True`` (the first stacked layer of a step): ``x`` is the shared
    ``(n, K)`` batch and the forward runs one wide GEMM
    ``(n, K) @ (K, B * N)`` — the per-chip weight columns concatenated — whose
    per-chip slices equal the serial ``x @ W_b.T``.  The backward splits the
    folded gradient per chip and computes the stacked weight gradients
    ``grad_b.T @ x`` against the shared operand.

    ``shared=False``: ``x`` is folded ``(B * n, K)`` and forward/backward are
    stacked batched matmuls whose slices mirror the serial GEMMs exactly.
    """

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
        # A shared input is the data batch, which needs no gradient.
        if not shared and (not self.needs_input_grad or self.needs_input_grad[0]):
            grad_x = np.matmul(g, weight).reshape(x.shape)  # (B, n, K) folded
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
    ``b``'s slice (or row block) to BLAS exactly like the serial oracle's
    ``Conv2dFunction`` (``tests/serial.py``) does.

    ``phase`` (``"train"`` or ``"eval"``) names the timers the forward's
    lowering and GEMM are attributed to (``fat.train.*`` or ``fat.eval.*``).
    """

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
        phase: str = "train",
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
                # Pre-lowered shared input (the eval pass's lowering).
                cols_op, out_h, out_w = lowering
            else:
                with metrics.timer(f"fat.{phase}.im2col_seconds"):
                    cols_op, out_h, out_w = im2col_t(x, (kh, kw), stride, padding)  # (K, P)
            # Wide GEMM: all chips' weight rows in one (B * O, K) @ (K, P)
            # call.  Per-chip row blocks are bit-identical to the serial
            # (O, K) @ (K, P) GEMM on this BLAS build (pinned by tests), and
            # one M-wide call is far faster than B narrow ones.
            with metrics.timer(f"fat.{phase}.gemm_seconds"):
                out_t = (w2.reshape(chips * out_channels, -1) @ cols_op).reshape(
                    chips, out_channels, -1
                )
        else:
            per_chip = x.shape[0] // num_chips
            with metrics.timer(f"fat.{phase}.im2col_seconds"):
                cols_op, out_h, out_w = _stacked_im2col_t(
                    x, num_chips, (kh, kw), stride, padding
                )
            with metrics.timer(f"fat.{phase}.gemm_seconds"):
                out_t = np.matmul(w2, cols_op)  # (B, O, P)
        if bias is not None:
            out_t += bias[:, :, None]
        out = out_t.reshape(chips, out_channels, per_chip, out_h, out_w).transpose(
            0, 2, 1, 3, 4
        )
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
        # A shared input is the data batch, which needs no gradient.
        if not shared and (not self.needs_input_grad or self.needs_input_grad[0]):
            grad_colsT = np.matmul(w2.transpose(0, 2, 1), g_t)  # (B, K, P)
            with metrics.timer("fat.train.col2im_seconds"):
                grad_x = _stacked_col2im_t(
                    grad_colsT, x_shape, num_chips, kernel, stride, padding, out_h, out_w
                )
        if has_bias:
            grad_bias = g_t.sum(axis=2)
            return grad_x, grad_w, grad_bias
        return grad_x, grad_w


class _StackedNllLossFunction(Function):
    """Per-chip mean NLL of folded log-probabilities: returns ``(B,)`` losses.

    Chip ``b``'s value and gradient replicate the serial oracle's
    ``cross_entropy(..., reduction="mean")`` (``tests/serial.py``) operation
    for operation (including the optional label-smoothing composition), so
    one backward from the summed losses is bit-identical to B serial
    backwards.
    """

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


def _keep_multiplier_kernel(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Keep-multiplier mask enforcement, shared as an IR op kernel."""
    np.multiply(values, keep, out=values)
    return values


def _demoted(out: np.ndarray, *inputs: Optional[np.ndarray]) -> np.ndarray:
    """The float32 discipline: an op whose array inputs are all narrower than
    float64 hands on no float64 output (a numpy scalar operand can promote
    one, and it would cascade through every later layer).  The serial
    oracle's tape applies the same rule to every op."""
    if out.dtype == np.float64 and all(a.dtype != np.float64 for a in inputs if a is not None):
        return out.astype(np.float32)
    return out


# ---------------------------------------------------------------------------
# The layer program
# ---------------------------------------------------------------------------
#
# One entry per leaf layer, in registration order.  In a training step,
# ``forward(x, cache)`` runs a fresh kernel instance and appends it, with its
# input, to the step's cache; ``backward(grad, saved)`` takes that pair,
# writes the layer's parameter gradients and returns the input's gradient,
# cast to the input's dtype as the serial oracle's tape casts it (``None``
# for the first stacked layer, whose input is data).  The cache keeps every
# saved array until the step returns and then frees them together: freeing
# each during the backward pass fragmented the heap, and ``paper-fig3``'s
# peak RSS rose about 3 MB on most seeds.  With
# ``cache=None`` (an eval pass) the forward is one :func:`recorded` node
# running :meth:`_Layer.evaluate`, so a compute backend captures and replays
# it; the node reads the stacked weights when it runs and closes over no
# trainer.

StepCache = List[Tuple[Function, np.ndarray]]


class _Layer:
    """A parameter-free per-sample layer: its serial kernel on folded arrays."""

    def __init__(self, op: str, kernel: type, *args) -> None:
        self.op, self.kernel, self.args = op, kernel, args
        self.first = False  # only a stacked layer is ever the first

    def _run(self, ctx: Function, x: np.ndarray, phase: str) -> np.ndarray:
        return ctx.forward(x, *self.args)

    def params(self) -> List[nn.Parameter]:
        return []

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        arrays = [p.data for p in self.params()]
        return _demoted(self._run(self.kernel(), x, "eval"), x, *arrays)

    def forward(self, x: np.ndarray, cache: Optional[StepCache]) -> np.ndarray:
        if cache is None:
            return recorded(self.op, (x,), self.evaluate)
        ctx = self.kernel()
        ctx.needs_input_grad = (not self.first,)
        arrays = [p.data for p in self.params()]
        out = _demoted(self._run(ctx, x, "train"), x, *arrays)
        cache.append((ctx, x))
        return out

    def backward(
        self, grad: np.ndarray, saved: Tuple[Function, np.ndarray]
    ) -> Optional[np.ndarray]:
        ctx, x = saved
        grad_x, *param_grads = ctx.backward(grad)
        for param, param_grad in zip(self.params(), param_grads):
            param.grad = np.asarray(param_grad, dtype=param.data.dtype)
        return None if grad_x is None else np.asarray(grad_x, dtype=x.dtype).reshape(x.shape)


class _MaxPool2dLayer(_Layer):
    def _run(self, ctx: Function, x: np.ndarray, phase: str) -> np.ndarray:
        if phase == "eval":  # no argmax bookkeeping: no backward follows
            return max_pool2d_inference(x, *self.args)
        return ctx.forward(x, *self.args)


class _FlattenLayer(_Layer):
    def _run(self, ctx: Function, x: np.ndarray, phase: str) -> np.ndarray:
        (start_dim,) = self.args
        return ctx.forward(x, x.shape[:start_dim] + (-1,))


@dataclasses.dataclass
class _StackedLayer(_Layer):
    """A ``Linear``/``Conv2d`` layer with its B stacked per-chip weights (and masks).

    ``first`` marks the first stacked layer: its input is the data batch, so
    it computes no input gradient, and an eval pass feeds it the shared
    (un-replicated) batch.  ``shared`` says whether training steps feed it
    the shared batch too (one data stream) or the chips' folded batches.
    """

    name: str
    module: nn.Module
    weight: nn.Parameter  # (B,) + weight shape
    bias: Optional[nn.Parameter]  # (B, out) or None
    keep: Optional[np.ndarray]  # (B,) + weight shape float32; masked layers of a training stack
    num_chips: int
    first: bool
    shared: bool

    def params(self) -> List[nn.Parameter]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]

    def _operands(self, phase: str):
        """Weights, bias, chip count and shared flag of one kernel call."""
        bias = None if self.bias is None else self.bias.data
        shared = self.first if phase == "eval" else self.shared
        return self.weight.data, bias, self.num_chips, shared

    def enforce_weight(self) -> None:
        if self.keep is not None:
            recorded("mask.keep_multiplier", (self.weight.data, self.keep),
                     _keep_multiplier_kernel)

    def enforce_grad(self) -> None:
        if self.keep is not None and self.weight.grad is not None:
            recorded("mask.keep_multiplier", (self.weight.grad, self.keep),
                     _keep_multiplier_kernel)


class _StackedLinear(_StackedLayer):
    op, kernel = "stacked_linear", _StackedLinearFunction

    def _run(self, ctx: Function, x: np.ndarray, phase: str) -> np.ndarray:
        if x.ndim != 2:  # ``Linear`` flattens image inputs (an MLP on images)
            x = x.reshape(x.shape[0], -1)
        return ctx.forward(x, *self._operands(phase))


class _StackedConv2d(_StackedLayer):
    op, kernel = "stacked_conv2d", _StackedConv2dFunction

    def _run(self, ctx: Function, x: np.ndarray, phase: str) -> np.ndarray:
        weight, bias, chips, shared = self._operands(phase)
        module, lowering = self.module, None
        if phase == "eval" and shared:
            # The shared eval input is lowered once for all chips; the
            # columns die with the batch.
            with metrics.timer("fat.eval.im2col_seconds"):
                lowering = _LOWERING.get_or_compute(
                    self.name,
                    lambda: im2col_t(x, module.kernel_size, module.stride, module.padding),
                )
        return ctx.forward(
            x, weight, bias, module.stride, module.padding, chips, shared, lowering, phase
        )


def _program_layer(name: str, module: nn.Module) -> _Layer:
    """The parameter-free program entry of leaf ``module``."""
    if isinstance(module, nn.ReLU):
        return _Layer("relu", ReLU)
    if isinstance(module, nn.MaxPool2d):
        return _MaxPool2dLayer("max_pool2d", MaxPool2dFunction, module.kernel_size, module.stride)
    if isinstance(module, nn.Flatten):
        return _FlattenLayer("flatten", Reshape, module.start_dim)
    raise UnsupportedModelError(
        f"layer {name!r} ({type(module).__name__}) is not a Linear, Conv2d, ReLU, "
        "MaxPool2d or Flatten layer, so the stacked trainer's layer program "
        "cannot run it"
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
    seeds give every chip its own train loader, seeded as a one-seed stack
    with that seed would seed it, and each step feeds the chips' folded
    ``(B * n, ...)`` batches; evaluation input is still shared, so eval
    passes keep the shared prefix.

    Exact serial equivalence: chip ``b``'s weights, losses and accuracies are
    bit-identical to a serial reference run
    (``tests/helpers.py``: ``ReferenceTrainer(model, ..., masks=mask_sets[b])``)
    whose config carries chip ``b``'s seed, on this BLAS build
    (tests/test_batched_fat.py pins this).  The model itself is never
    modified: stacked copies are trained through the layer program, and
    per-chip results are read back with :meth:`chip_state_dict`.

    Supported models are chains of ``Linear``/``Conv2d`` (stacked GEMMs),
    ``ReLU``, ``MaxPool2d`` and ``Flatten`` layers run in registration
    order; a ``Linear`` flattens an input of more than two dimensions.  Any
    other leaf layer, or a container with parameters of its own, raises
    :class:`UnsupportedModelError`.

    ``train_data=None`` builds an eval-only stack: the layer program without
    train loaders, optimizer or mask keep-multipliers, which can
    :meth:`evaluate` but not :meth:`train`.  :func:`evaluate_chip_accuracies`
    is one.
    """

    def __init__(
        self,
        model: nn.Module,
        mask_sets: Sequence[MaskDict],
        train_data: Optional[Union[TensorDataset, DataLoader]],
        eval_data: Union[TensorDataset, DataLoader],
        config=None,
        eval_pipeline: Optional[EvalPipeline] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        from repro.training import TrainingConfig

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
        # One train loader per distinct seed: a single shared stream when
        # every chip has the same seed, otherwise one stream per chip.
        self._per_chip_streams = len(set(seeds)) > 1
        self.eval_data = eval_data
        self.steps_taken = 0
        pipeline = eval_pipeline if eval_pipeline is not None else EvalPipeline()
        # Captured-graph execution of the checkpoint-eval hot path (training
        # steps always run eagerly).  Captured eval graphs read the stacked
        # weights and biases *live*, so replay tracks every optimizer step and
        # mask enforcement between checkpoints.
        self._backend = resolve_backend(pipeline.backend)
        self._eval_chain_cache = (
            ChainCache(self._backend, name="fat.eval")
            if self._backend is not None
            else None
        )

        # The layer program: one entry per leaf layer, in model order.
        self._program: List[_Layer] = []
        self._layers: List[_StackedLayer] = []
        for name, module in model.named_modules():
            if module._modules:
                if any(p is not None for p in module._parameters.values()):
                    raise UnsupportedModelError(
                        f"layer {name!r} ({type(module).__name__}) holds parameters "
                        "of its own beside its sub-layers; the stacked trainer's "
                        "layer program runs only leaf layers"
                    )
                continue
            if not isinstance(module, (nn.Linear, nn.Conv2d)):
                self._program.append(_program_layer(name, module))
                continue
            weight = module.weight.data
            stack = np.empty((self.num_chips,) + weight.shape, dtype=weight.dtype)
            # Keep-multipliers enforce the masks during training only.
            keep: Optional[np.ndarray] = None
            if name in key_set and train_data is not None:
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
                    if keep is not None:
                        keep[chip] = np.where(mask, np.float32(0.0), np.float32(1.0))
                else:
                    stack[chip] = weight
            weight_param = nn.Parameter(stack)
            bias_param: Optional[nn.Parameter] = None
            if module.bias is not None:
                bias_param = nn.Parameter(
                    np.repeat(module.bias.data[None], self.num_chips, axis=0)
                )
            first = not self._layers
            stacked = (_StackedLinear if isinstance(module, nn.Linear) else _StackedConv2d)(
                name, module, weight_param, bias_param, keep, self.num_chips,
                first=first, shared=first and not self._per_chip_streams,
            )
            self._layers.append(stacked)
            self._program.append(stacked)
        known = {layer.name for layer in self._layers}
        for name in key_set:
            if name not in known:
                raise KeyError(f"mask refers to unknown layer {name!r}")
        self._masked_layers = [layer for layer in self._layers if layer.keep is not None]
        if train_data is not None:
            self._build_training_state(train_data, seeds)

    def _build_training_state(
        self, train_data: Union[TensorDataset, DataLoader], seeds: List[int]
    ) -> None:
        """The train loaders (one per data stream) and the optimizer."""
        from repro.training import _as_loader, require_nonempty_train_loader
        from repro.utils.rng import derive_seed

        if self._per_chip_streams and isinstance(train_data, DataLoader):
            raise ValueError(
                "per-chip seeds need a TensorDataset to build one train loader per chip, "
                "not a DataLoader"
            )
        stream_seeds = seeds if self._per_chip_streams else seeds[:1]
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
        self.batches_per_epoch = len(self._train_loaders[0])
        # Weight before bias per layer, as in ``model.parameters()``, so
        # per-chip gradient clipping accumulates norms in the serial order.
        self.optimizer = self.config.build_optimizer(
            [param for layer in self._layers for param in layer.params()]
        )

    @property
    def epochs_taken(self) -> float:
        return self.steps_taken / self.batches_per_epoch

    def _forward(self, x: np.ndarray, cache: Optional[StepCache]) -> np.ndarray:
        """Run the layer program on ``x``: a training step's when ``cache``
        collects its kernel contexts, an eval pass's when it is ``None``."""
        for layer in self._program:
            x = layer.forward(x, cache)
        return x

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
        call).  At the ``index``-th one the loop pauses — between steps, so
        the callback may evaluate — and ``at_readout(index,
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
                while len(losses) < stop:
                    batch = next(batches, None)
                    if batch is None:
                        batches = zip(*self._train_loaders)
                        continue
                    losses.append(self._train_step(batch))
                    self.steps_taken += 1
                if stop < num_steps:
                    at_readout(index, self._mean_losses(losses))
        return self._mean_losses(losses)

    def _train_step(self, batch) -> np.ndarray:
        """One optimizer step on ``batch``; returns each chip's ``(B,)`` float64 loss.

        The program's forward loop, the stacked loss (log-softmax and
        per-chip mean NLL), the reversed backward loop that writes every
        stacked parameter's gradient, then gradient masks, per-chip clipping,
        the optimizer step and weight masks.  The step's cache (its kernels,
        their inputs and saved lowerings) is local to this call, so the next
        step's forward, a readout and a checkpoint evaluation never see it.
        """
        if self._per_chip_streams:
            # Each chip's own batch, folded: no shared prefix.
            inputs = np.concatenate([x.data for x, _ in batch])
            targets = np.concatenate([y for _, y in batch])
        else:
            inputs, targets = batch[0]
            inputs = inputs.data
        cache: StepCache = []
        logits = self._forward(inputs, cache)
        log_softmax, nll = LogSoftmax(), _StackedNllLossFunction()
        log_probs = _demoted(log_softmax.forward(logits, -1), logits)
        step_losses = _demoted(
            nll.forward(
                log_probs, np.asarray(targets), self.num_chips,
                float(self.config.label_smoothing),
            ),
            log_probs,
        )
        self.optimizer.zero_grad()
        # The gradient of the summed per-chip losses: ones.
        (grad,) = nll.backward(np.ones(self.num_chips, dtype=step_losses.dtype))
        (grad,) = log_softmax.backward(np.asarray(grad, dtype=log_probs.dtype))
        grad = np.asarray(grad, dtype=logits.dtype)
        for layer, saved in zip(reversed(self._program), reversed(cache)):
            grad = layer.backward(grad, saved)
            if grad is None:  # the first stacked layer: its input is data
                break
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
        return step_losses.astype(np.float64)

    def _mean_losses(self, losses: List[np.ndarray]) -> np.ndarray:
        """Each chip's mean over per-step ``(B,)`` loss vectors."""
        stacked = np.asarray(losses)  # (steps, B)
        # Serial records python floats and takes np.mean over the step list;
        # reduce each chip's contiguous step vector the same way.
        return np.array(
            [np.mean(np.ascontiguousarray(stacked[:, chip])) for chip in range(self.num_chips)]
        )

    def _eval_logits(self, data: np.ndarray) -> np.ndarray:
        """Per-chip logits for one eval batch: ``(B, n, classes)``."""
        logits = self._forward(data, None)
        chips, n = self.num_chips, data.shape[0]
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
        correct = np.zeros(self.num_chips, dtype=np.int64)
        total = 0
        with trace.span("fat.eval_checkpoint", chips=self.num_chips):
            for inputs, targets in loader:
                data = inputs.data
                if self._eval_chain_cache is None:
                    logits = self._eval_logits(data)
                else:
                    logits = self._eval_chain_cache.run((data,), self._eval_logits)
                predictions = logits.argmax(axis=-1)
                correct += (predictions == np.asarray(targets)[None, :]).sum(axis=1)
                total += data.shape[0]
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
        pass (between steps).  Evaluation never mutates training state — it
        runs the layer program without a cache on the current stacks over
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
        """The model state dict chip ``chip``'s serial run would end with.

        Every parameter of a supported model belongs to a stacked layer, so
        the chip's slices are the whole state.
        """
        if not 0 <= chip < self.num_chips:
            raise IndexError(f"chip {chip} out of range for {self.num_chips} chips")
        state: Dict[str, np.ndarray] = {}
        for layer in self._layers:
            prefix = f"{layer.name}." if layer.name else ""
            state[f"{prefix}weight"] = layer.weight.data[chip].copy()
            if layer.bias is not None:
                state[f"{prefix}bias"] = layer.bias.data[chip].copy()
        return state


def evaluate_chip_accuracies(
    model: nn.Module,
    data: Union[TensorDataset, DataLoader],
    mask_sets: Sequence[MaskDict],
    config=None,
    eval_pipeline: Optional[EvalPipeline] = None,
) -> List[float]:
    """Accuracy of ``model`` under each chip's masks, as one stack.

    The forward-only evaluation behind Step-2.5 triage, the one place Step
    3's initial accuracies come from: the mask sets are one
    :meth:`BatchedFaultTrainer.evaluate` pass of an eval-only stack, which
    builds no train loader, optimizer or keep-multipliers.  An empty ``data`` gives every chip
    accuracy 0.0.  Peak memory is one stacked model copy per mask set plus
    one eval batch's working set;
    the caller sizes the stack
    (:meth:`~repro.core.reduce.ReduceFramework.triage_population` passes at
    most ``TRIAGE_CHIP_CHUNK``), and nothing outlives the call.

    The eval batch is ``config.batch_size``, exactly as in Step-3
    checkpoint evaluation, and every pass replays through ``eval_pipeline``'s
    compute backend (a fresh eager :class:`EvalPipeline` when not supplied).
    """
    return BatchedFaultTrainer(
        model, mask_sets, None, data, config=config, eval_pipeline=eval_pipeline
    ).evaluate()
