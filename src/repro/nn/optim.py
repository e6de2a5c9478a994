"""Optimizers and gradient clipping.

The stacked trainer (:class:`~repro.accelerator.batched.BatchedFaultTrainer`)
builds these optimizers over its ``(B, ...)`` parameter stacks through
:meth:`~repro.training.TrainingConfig.build_optimizer`; SGD with momentum
matches the fine-tuning setup typically used for fault-aware training of
convolutional networks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class for optimizers operating on a list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        self.lr = float(lr)
        self.state: Dict[int, Dict[str, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            self._update(index, param, param.grad)

    def _update(self, index: int, param: Parameter, grad: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    def _param_state(self, index: int) -> Dict[str, np.ndarray]:
        return self.state.setdefault(index, {})

    def _scratch(self, state: Dict[str, np.ndarray], name: str, like: np.ndarray) -> np.ndarray:
        """Preallocated per-parameter work buffer (reused across steps).

        The hot update paths write every intermediate into these buffers, so a
        step allocates nothing after the first; the buffer is recreated only
        if the parameter's shape or dtype changed (e.g. ``load_state_dict``).
        """
        buf = state.get(name)
        if buf is None or buf.shape != like.shape or buf.dtype != like.dtype:
            buf = np.empty_like(like)
            state[name] = buf
        return buf


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        # All arithmetic below matches the textbook formulation value-for-value
        # (same operations in the same order); the only change is that every
        # intermediate lands in a preallocated buffer and the parameter is
        # updated in place, so a step performs zero array allocations.
        state = self._param_state(index)
        data = param.data
        if self.weight_decay:
            scratch = self._scratch(state, "scratch", data)
            np.multiply(data, self.weight_decay, out=scratch)
            np.add(grad, scratch, out=scratch)
            grad = scratch
        if self.momentum:
            buf = state.get("momentum")
            if buf is None or buf.shape != grad.shape:
                buf = grad.copy()
                state["momentum"] = buf
            else:
                buf *= self.momentum
                buf += grad
            grad = buf
        step_buf = self._scratch(state, "step", data)
        np.multiply(grad, self.lr, out=step_buf)
        np.subtract(data, step_buf, out=data)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        # Same math as the textbook update (identical operation order), with
        # every intermediate written into preallocated per-parameter buffers.
        state = self._param_state(index)
        if self.weight_decay:
            scratch = self._scratch(state, "scratch", param.data)
            np.multiply(param.data, self.weight_decay, out=scratch)
            np.add(grad, scratch, out=scratch)
            grad = scratch
        m = state.get("m")
        v = state.get("v")
        step = state.get("step", 0) + 1
        if m is None or m.shape != param.data.shape:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            state["m"], state["v"] = m, v
        state["step"] = step
        work = self._scratch(state, "work", param.data)
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=work)
        m += work
        # v = beta2 * v + (1 - beta2) * grad^2
        v *= self.beta2
        np.multiply(grad, grad, out=work)
        work *= 1 - self.beta2
        v += work
        # param -= lr * m_hat / (sqrt(v_hat) + eps)
        denom = self._scratch(state, "denom", param.data)
        np.divide(v, 1 - self.beta2 ** step, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1 - self.beta1 ** step, out=work)
        work *= self.lr
        np.divide(work, denom, out=work)
        np.subtract(param.data, work, out=param.data)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _update(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        if self.weight_decay:
            state = self._param_state(index)
            decay = self._scratch(state, "decay", param.data)
            np.multiply(param.data, self.lr * self.weight_decay, out=decay)
            np.subtract(param.data, decay, out=param.data)
        weight_decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super()._update(index, param, grad)
        finally:
            self.weight_decay = weight_decay


def clip_grad_norm_per_chip(
    parameters: Iterable[Parameter], max_norm: float, num_chips: int
) -> np.ndarray:
    """Per-chip gradient clipping over *stacked* ``(B, ...)`` parameters.

    Each parameter (and its gradient) carries a leading chip axis of length
    ``num_chips``; chip ``b``'s norm is accumulated over every parameter's
    ``[b]`` slice and only that slice is rescaled — exactly what the serial
    ``clip_grad_norm`` of ``tests/helpers.py`` computes for chip ``b``'s
    standalone parameter list, value for value: each parameter's squares are
    reduced per chip (one row-wise float64 sum, the same pairwise sum as the
    slice's own) and added to the running norms in parameter order; the
    scale is cast to the gradient dtype before the in-place multiply, as a
    Python-float scale is, and unclipped chips are multiplied by exactly 1.0.

    Returns the per-chip norms before clipping, shape ``(num_chips,)``.
    """
    if num_chips < 1:
        raise ValueError(f"num_chips must be >= 1, got {num_chips}")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return np.zeros(num_chips, dtype=np.float64)
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    for p in params:
        if p.grad.shape[0] != num_chips:
            raise ValueError(
                f"stacked gradient has leading dimension {p.grad.shape[0]}, "
                f"expected {num_chips} chips"
            )
    squares = np.zeros(num_chips, dtype=np.float64)
    for p in params:
        squares += (p.grad.astype(np.float64) ** 2).reshape(num_chips, -1).sum(axis=1)
    norms = np.sqrt(squares)
    clipped = norms > max_norm
    if clipped.any():
        scale = np.where(clipped, max_norm / (norms + 1e-12), 1.0)
        for p in params:
            chip_scale = scale.astype(p.grad.dtype).reshape((num_chips,) + (1,) * (p.grad.ndim - 1))
            np.multiply(p.grad, chip_scale, out=p.grad)
    return norms
