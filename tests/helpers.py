"""Shared test helpers (kept outside conftest so tests can import them)."""

from __future__ import annotations

import ast
import dataclasses
import math
from typing import Dict, List, Optional, Set

import numpy as np

from repro import nn
from repro.accelerator.mapping import model_fault_masks, weight_matrix_view
from repro.core.reduce import _build_chip_result
from repro.data.dataset import TensorDataset
from repro.data.synthetic import DatasetBundle
from repro.mitigation.saliency import get_saliency_metric
from repro.mitigation.strategy import resolve_strategy
from repro.nn.serialization import clone_state_dict
from repro.training import (
    CheckpointRecord,
    TrainingConfig,
    TrainingHistory,
    _as_eval_loader,
    _as_loader,
    epochs_to_steps,
    require_nonempty_train_loader,
)
from repro.utils.rng import SeedLike, derive_seed, new_rng
from tests.serial import (
    MaskDict,
    _resolve_masked_weight,
    cross_entropy,
    no_grad,
    serial_forward,
)


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


def recorded_evaluate(trainer):
    """``trainer.evaluate()`` plus its per-batch ``(B, n, classes)`` logits.

    The logits are copied where the eval chain hands them back: the eager
    forward, or the chain cache's capture or replay when a backend is set.
    """
    logits = []

    def keep(batch_logits):
        logits.append(np.array(batch_logits, copy=True))
        return batch_logits

    cache = trainer._eval_chain_cache
    if cache is None:
        forward = trainer._eval_logits
        trainer._eval_logits = lambda data: keep(forward(data))
    else:
        run = cache.run
        cache.run = lambda inputs, eager_fn: keep(run(inputs, eager_fn))
    try:
        return trainer.evaluate(), logits
    finally:
        trainer.__dict__.pop("_eval_logits", None)
        if cache is not None:
            del cache.run


@dataclasses.dataclass
class MaskedParameter:
    """One weight tensor with its fault mask, resolved to the live parameter.

    ``keep`` is the float32 multiplicative complement of the boolean mask
    (1.0 = trainable, 0.0 = clamped); multiplying by it in place enforces the
    mask without boolean fancy-indexing or temporary allocations.
    """

    name: str
    weight: nn.Tensor
    mask: np.ndarray
    keep: np.ndarray

    def enforce_weight(self) -> None:
        np.multiply(self.weight.data, self.keep, out=self.weight.data)


def resolve_masked_parameters(
    model: nn.Module, masks: Optional[MaskDict]
) -> List[MaskedParameter]:
    """Resolve mask names to live weight tensors once (hot loops reuse this).

    Validates exactly like the per-call path: unknown layer names and shape
    mismatches raise immediately rather than mid-training.
    """
    if not masks:
        return []
    modules = dict(model.named_modules())
    resolved: List[MaskedParameter] = []
    for name, mask in masks.items():
        weight = _resolve_masked_weight(modules, name, mask)
        keep = np.where(mask, np.float32(0.0), np.float32(1.0))
        resolved.append(MaskedParameter(name=name, weight=weight, mask=mask, keep=keep))
    return resolved


def enforce_weight_masks(model: nn.Module, masks: Optional[MaskDict]) -> List[MaskedParameter]:
    """Clamp masked weights of ``model`` in place with the keep-multipliers.

    The in-place pruning of the serial reference: it resolves the masks like
    :class:`ReferenceTrainer` and enforces them with the same float32
    keep-multiplies its step loop uses.  Returns the resolved parameters.
    """
    resolved = resolve_masked_parameters(model, masks)
    for masked in resolved:
        masked.enforce_weight()
    return resolved


def masked_saliency(model: nn.Module, masks: MaskDict, metric: str = "magnitude") -> float:
    """Total per-weight saliency of the weights ``masks`` clamp to zero.

    The FAM oracle: saliency-driven column permutations should sacrifice no
    more saliency than the plain periodic masks do.
    """
    saliency_fn = get_saliency_metric(metric)
    modules = dict(model.named_modules())
    total = 0.0
    for name, mask in masks.items():
        matrix = weight_matrix_view(modules[name])
        total += float(saliency_fn(matrix)[mask.reshape(matrix.shape)].sum())
    return total


def serial_evaluate_accuracy(model, data, batch_size=128):
    """Top-1 accuracy of ``model`` through the serial oracle's forward.

    The evaluation oracle of the stacked eval that
    ``repro.training.evaluate_accuracy`` runs.
    """
    loader = _as_eval_loader(data, batch_size=batch_size)
    correct = 0
    total = 0
    with no_grad():
        for inputs, targets in loader:
            logits = serial_forward(model, inputs)
            predictions = logits.data.argmax(axis=-1)
            correct += int((predictions == np.asarray(targets)).sum())
            total += len(targets)
    return correct / total if total else 0.0


def clip_grad_norm(parameters, max_norm):
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    The serial clip of :class:`ReferenceTrainer`, which
    ``nn.clip_grad_norm_per_chip`` equals chip by chip.  Returns the norm
    before clipping.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = math.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params))
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            np.multiply(p.grad, scale, out=p.grad)
    return total


class ReferenceTrainer:
    """The serial training loop the stacked trainer must equal bit for bit.

    One model trained in place, one optimizer step per mini-batch: forward,
    cross-entropy, backward, keep-multiplier gradient masking, global
    gradient-norm clipping, the optimizer step and keep-multiplier weight
    masking.  ``BatchedFaultTrainer`` reproduces chip ``b``'s run of this
    loop with ``masks=mask_sets[b]`` and chip ``b``'s seed, and so
    ``repro.training.Trainer``, its unmasked stack of one, reproduces it
    without masks.
    """

    def __init__(self, model, train_data, eval_data, config=None, masks=None):
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self.masks = masks
        self.train_loader = _as_loader(
            train_data,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            seed=derive_seed(self.config.seed, "train-loader"),
        )
        self.eval_data = eval_data
        require_nonempty_train_loader(self.train_loader)
        self.optimizer = self.config.build_optimizer(model.parameters())
        self.steps_taken = 0
        self.batches_per_epoch = len(self.train_loader)
        self._masked_params = resolve_masked_parameters(self.model, self.masks)
        # Enforce the masks on the starting weights (FAP before FAT).
        for masked in self._masked_params:
            masked.weight.data[masked.mask] = 0.0

    @property
    def epochs_taken(self):
        return self.steps_taken / self.batches_per_epoch

    def _train_steps(self, num_steps):
        """Run ``num_steps`` optimizer steps; returns the mean training loss."""
        if num_steps <= 0:
            return float("nan")
        losses = []
        remaining = num_steps
        while remaining > 0:
            for inputs, targets in self.train_loader:
                logits = serial_forward(self.model, inputs)
                loss = cross_entropy(
                    logits, targets, label_smoothing=self.config.label_smoothing
                )
                self.optimizer.zero_grad()
                loss.backward()
                for masked in self._masked_params:
                    grad = masked.weight.grad
                    if grad is not None:
                        np.multiply(grad, masked.keep, out=grad)
                if self.config.grad_clip is not None:
                    clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
                self.optimizer.step()
                for masked in self._masked_params:
                    masked.enforce_weight()
                losses.append(loss.item())
                self.steps_taken += 1
                remaining -= 1
                if remaining == 0:
                    break
        return float(np.mean(losses)) if losses else float("nan")

    def evaluate(self):
        return serial_evaluate_accuracy(
            self.model, self.eval_data, batch_size=self.config.batch_size
        )

    def train(self, epochs, eval_checkpoints=None, include_initial=True):
        """Segment-mode training: each checkpoint ends one ``_train_steps`` call."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        history = TrainingHistory()
        if include_initial:
            history.add(
                CheckpointRecord(
                    epochs=0.0,
                    steps=self.steps_taken,
                    train_loss=float("nan"),
                    eval_accuracy=self.evaluate(),
                )
            )
        checkpoints = sorted(set(float(c) for c in (eval_checkpoints or []) if 0.0 < c <= epochs))
        if epochs > 0 and (not checkpoints or abs(checkpoints[-1] - epochs) > 1e-12):
            checkpoints.append(float(epochs))
        previous_steps = 0
        for checkpoint in checkpoints:
            target_steps = epochs_to_steps(checkpoint, self.batches_per_epoch)
            step_delta = target_steps - previous_steps
            train_loss = self._train_steps(step_delta) if step_delta > 0 else float("nan")
            previous_steps = target_steps
            history.add(
                CheckpointRecord(
                    epochs=checkpoint,
                    steps=self.steps_taken,
                    train_loss=train_loss,
                    eval_accuracy=self.evaluate(),
                )
            )
        return history


def reference_retrain_chip(
    framework,
    chip,
    epochs,
    return_state=False,
    target_accuracy=None,
    accuracy_before=None,
    strategy=None,
):
    """One chip's Step-3 result, retrained alone through :class:`ReferenceTrainer`.

    The serial reference that ``ReduceFramework.retrain_chips_batched``, fed
    the initial accuracies of ``triage_population`` (and so every campaign
    chunk), must equal entry for entry.  The framework model is
    restored to its pre-trained weights first, so calls are independent; with
    ``return_state=True`` the chip's fault-aware weights are returned too.
    ``target_accuracy`` overrides the framework's resolved constraint, and
    ``accuracy_before`` injects a triage accuracy, which lets a zero-epoch
    chip skip the trainer.  ``strategy`` selects the mitigation recipe:
    non-retraining strategies clamp the budget to zero, and a bypassable chip
    under a bypass strategy ships the unmodified pre-trained model.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    strategy = resolve_strategy(strategy)
    target = target_accuracy if target_accuracy is not None else framework.target_accuracy
    framework._restore_pretrained()
    model = framework.model
    if strategy.bypass and strategy.bypass_plan(chip.fault_map) is not None:
        if accuracy_before is None:
            enforce_weight_masks(model, strategy.chip_masks(model, chip.fault_map))
            accuracy_before = serial_evaluate_accuracy(
                model,
                framework.bundle.test,
                batch_size=framework.config.effective_retraining_config().batch_size,
            )
            framework._restore_pretrained()
        result = _build_chip_result(
            chip, {}, 0.0, 0.0, accuracy_before, framework.clean_accuracy, target,
            strategy=strategy.name,
        )
        return (result, clone_state_dict(model.state_dict())) if return_state else result
    masks = strategy.chip_masks(model, chip.fault_map)
    epochs = strategy.effective_epochs(epochs, chip.fault_map)
    accuracy_after, epochs_trained = accuracy_before, 0.0
    if epochs > 0 or return_state or accuracy_before is None:
        trainer = ReferenceTrainer(
            model,
            framework.bundle.train,
            framework.bundle.test,
            config=framework._fat_training_config(),
            masks=masks,
        )
        if accuracy_before is None:
            accuracy_before = accuracy_after = trainer.evaluate()
        if epochs > 0:
            history = trainer.train(epochs, include_initial=False)
            accuracy_after, epochs_trained = history.final_accuracy, history.total_epochs
    result = _build_chip_result(
        chip, masks, epochs, epochs_trained, accuracy_before, accuracy_after,
        target, strategy=strategy.name,
    )
    return (result, clone_state_dict(model.state_dict())) if return_state else result


def triaged_jobs(framework, population, policy, strategy=None):
    """The campaign engine's jobs: ``build_jobs`` output carrying triage's
    initial accuracy, as :func:`~repro.campaign.jobs.execute_job_chunk`
    requires."""
    from repro.campaign import build_jobs

    jobs = build_jobs(framework, population, policy, strategy=strategy)
    before = framework.triage_population(
        [job.chip for job in jobs], strategy=strategy
    )
    return [job.with_accuracy_before(before[job.chip_id]) for job in jobs]


def serial_resilience_accuracies(analyzer):
    """Step-1 accuracies grid of ``analyzer``, one :class:`ReferenceTrainer` per cell.

    The reference the stacked :meth:`ResilienceAnalyzer.run` must equal bit
    for bit: every (rate, trial) cell restores the pre-trained weights,
    applies its fault map's FAP masks and retrains through the serial trainer
    under its own trial seed, recording [0.0] + the epoch checkpoints.  A
    fault rate of zero is the clean accuracy throughout.
    """
    config = analyzer.config
    model = analyzer.model
    model.load_state_dict(analyzer.pretrained_state)
    clean = serial_evaluate_accuracy(model, analyzer.bundle.test)
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
            trainer = ReferenceTrainer(
                model,
                analyzer.bundle.train,
                analyzer.bundle.test,
                config=dataclasses.replace(config.training, seed=trial_seed),
                masks=model_fault_masks(model, fault_map),
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
    """The NCHW phase sweep that ``tests.serial.col2im_t`` must equal bit for bit.

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


def reference_max_pool2d_backward(grad_output, argmax, x_shape, kernel_size, stride):
    """The zero-fill phase accumulate ``MaxPool2dFunction.backward`` must equal.

    Every input element starts at ``+0.0`` and receives ``g * (argmax ==
    k)`` from each window phase ``k`` that covers it, in row-major order.
    """
    kh, kw = kernel_size
    sh, sw = stride
    out_h, out_w = argmax.shape[2:]
    dx = np.zeros(x_shape, dtype=grad_output.dtype)
    for i in range(kh):
        for j in range(kw):
            selected = argmax == (i * kw + j)
            view = dx[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            view += grad_output * selected
    return dx


# -- source scans ---------------------------------------------------------------


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def loaded_names(tree: ast.AST) -> Set[str]:
    """Every bare name ``tree`` loads, names in quoted annotations included.

    The walker behind ``tests/test_unused_imports.py`` and
    ``tests/test_src_reachability.py``.
    """

    def walk(root: ast.AST) -> Set[str]:
        return {node.id for node in ast.walk(root)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}

    names = walk(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= walk(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    names.add(node.value)
    return names


# -- test utilities ---------------------------------------------------------------


def state_dicts_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray], atol: float = 0.0) -> bool:
    """Return True when two state dicts contain identical keys and values."""
    if set(a) != set(b):
        return False
    for name in a:
        left, right = np.asarray(a[name]), np.asarray(b[name])
        if left.shape != right.shape:
            return False
        if atol == 0.0:
            if not np.array_equal(left, right):
                return False
        elif not np.allclose(left, right, atol=atol):
            return False
    return True


def make_blob_classification(
    num_classes: int = 4,
    features: int = 16,
    train_per_class: int = 64,
    test_per_class: int = 32,
    cluster_std: float = 1.0,
    center_scale: float = 3.0,
    seed: SeedLike = 0,
) -> DatasetBundle:
    """Gaussian-blob feature-vector classification (fast MLP workloads)."""
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if features <= 0:
        raise ValueError("features must be positive")
    if cluster_std < 0:
        raise ValueError("cluster_std must be non-negative")
    rng = new_rng(seed)
    centers = rng.standard_normal((num_classes, features)).astype(np.float32) * center_scale

    def _split(samples_per_class: int, split_rng: np.random.Generator):
        total = num_classes * samples_per_class
        inputs = np.empty((total, features), dtype=np.float32)
        targets = np.empty(total, dtype=np.int64)
        cursor = 0
        for label in range(num_classes):
            noise = split_rng.standard_normal((samples_per_class, features)).astype(np.float32)
            inputs[cursor:cursor + samples_per_class] = centers[label] + cluster_std * noise
            targets[cursor:cursor + samples_per_class] = label
            cursor += samples_per_class
        order = split_rng.permutation(total)
        return inputs[order], targets[order]

    train_x, train_y = _split(train_per_class, rng)
    test_x, test_y = _split(test_per_class, rng)
    return DatasetBundle(
        name="gaussian-blobs",
        train=TensorDataset(train_x, train_y),
        test=TensorDataset(test_x, test_y),
        num_classes=num_classes,
        input_shape=(features,),
    )


def verify_masks_enforced(model: nn.Module, masks: MaskDict, atol: float = 0.0) -> bool:
    """Check that every masked weight of ``model`` is (still) zero.

    Masks resolve to live weight tensors through the reference trainer's
    :func:`resolve_masked_parameters` path, so the check
    validates exactly what the keep-multiplier enforcement operates on; a
    mask naming an unknown layer or mismatching the weight's shape yields
    ``False`` (it cannot be enforced by any path).
    """
    try:
        resolved = resolve_masked_parameters(model, masks)
    except (KeyError, ValueError):
        return False
    for masked in resolved:
        values = masked.weight.data[masked.mask]
        if values.size and not np.all(np.abs(values) <= atol):
            return False
    return True


def dominates(
    cost_a: float, quality_a: float, cost_b: float, quality_b: float
) -> bool:
    """True when point A dominates point B (cheaper-or-equal and better-or-equal, one strict)."""
    return (
        cost_a <= cost_b
        and quality_a >= quality_b
        and (cost_a < cost_b or quality_a > quality_b)
    )
