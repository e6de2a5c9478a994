"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, AdamW
from tests.helpers import clip_grad_norm
from tests.serial import Sub, Tensor, apply


def quadratic_loss(param):
    """Simple convex objective (param - 3)^2 summed."""
    diff = apply(Sub, param, Tensor(3.0))
    return (diff * diff).sum()


def run_optimizer(optimizer_factory, steps=200):
    param = Parameter(np.zeros(4, dtype=np.float32))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        loss = quadratic_loss(param)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return param.data


class TestSGD:
    def test_converges_on_quadratic(self):
        final = run_optimizer(lambda params: SGD(params, lr=0.1))
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-3)

    def test_momentum_converges(self):
        final = run_optimizer(lambda params: SGD(params, lr=0.05, momentum=0.9))
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-3)

    def test_weight_decay_shrinks_solution(self):
        no_decay = run_optimizer(lambda params: SGD(params, lr=0.1))
        decay = run_optimizer(lambda params: SGD(params, lr=0.1, weight_decay=0.5))
        assert np.all(decay < no_decay)

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.ones(2, dtype=np.float32))
        optimizer = SGD([param], lr=0.1)
        optimizer.step()  # no gradient yet
        np.testing.assert_allclose(param.data, np.ones(2))

    def test_validation(self):
        param = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=-0.5)


class TestAdam:
    def test_converges_on_quadratic(self):
        final = run_optimizer(lambda params: Adam(params, lr=0.1), steps=400)
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-2)

    def test_adamw_decoupled_decay(self):
        adam = run_optimizer(lambda params: Adam(params, lr=0.1, weight_decay=0.1), steps=300)
        adamw = run_optimizer(lambda params: AdamW(params, lr=0.1, weight_decay=0.1), steps=300)
        # Both shrink towards < 3; they must not diverge and must differ.
        assert np.all(adam < 3.0) and np.all(adamw < 3.0)
        assert not np.allclose(adam, adamw)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], betas=(1.5, 0.9))

    def test_step_count_tracked(self):
        param = Parameter(np.ones(2, dtype=np.float32))
        optimizer = Adam([param], lr=0.01)
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
        optimizer.step()
        assert optimizer.state[0]["step"] == 2  # the bias-correction step


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        params = [Parameter(np.ones(3, dtype=np.float32)) for _ in range(2)]
        for p in params:
            p.grad = np.full(3, 10.0, dtype=np.float32)
        norm_before = clip_grad_norm(params, max_norm=1.0)
        assert norm_before == pytest.approx(np.sqrt(6 * 100), rel=1e-5)
        total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert total == pytest.approx(1.0, rel=1e-4)

    def test_leaves_small_gradients_untouched(self):
        param = Parameter(np.ones(2, dtype=np.float32))
        param.grad = np.array([0.1, 0.1], dtype=np.float32)
        clip_grad_norm([param], max_norm=10.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])

    def test_no_gradients_returns_zero(self):
        assert clip_grad_norm([Parameter(np.ones(2))], max_norm=1.0) == 0.0

    def test_invalid_max_norm(self):
        param = Parameter(np.ones(2, dtype=np.float32))
        param.grad = np.ones(2, dtype=np.float32)
        with pytest.raises(ValueError):
            clip_grad_norm([param], max_norm=0.0)
