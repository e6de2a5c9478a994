"""Gradient correctness tests for the serial oracle's autograd tape.

Every differentiable operation is checked against a central-difference
numerical gradient on small random inputs (float64 to keep the comparison
tight).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import serial
from tests.helpers import numeric_gradient
from tests.serial import Tensor

RNG = np.random.default_rng(42)
TOL = dict(rtol=1e-5, atol=1e-6)


def check_gradient(build_scalar, x0, tolerance=1e-5):
    """Compare autograd gradient of ``build_scalar(Tensor)`` with numerics."""
    x = Tensor(x0, requires_grad=True, dtype=np.float64)
    scalar = build_scalar(x)
    scalar.backward()
    numeric = numeric_gradient(lambda arr: build_scalar(Tensor(arr, dtype=np.float64)).item(), x0)
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, numeric, rtol=tolerance, atol=tolerance)


class TestElementwiseGradients:
    def test_add_mul_chain(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: ((x * 3.0 + 1.0) * x).sum(), x0)

    def test_sub(self):
        x0 = RNG.standard_normal((3, 4)) + 3.0
        check_gradient(lambda x: ((x - 1.5) * (Tensor(2.0, dtype=np.float64) - x)).sum(), x0)

    def test_relu_gradient_masks_negatives(self):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float64), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones((4,)), requires_grad=True, dtype=np.float64)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcast_mul_gradient(self):
        x0 = RNG.standard_normal((2, 3))
        scale = RNG.standard_normal((3,))
        check_gradient(lambda x: (x * scale).sum(), x0)


class TestReductionGradients:
    def test_sum_axis(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: (x.sum(axis=0) * x.sum(axis=0)).sum(), x0)

    def test_mean_axis_keepdims(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: (x.mean(axis=1, keepdims=True) * x).sum(), x0)

class TestLinearAlgebraGradients:
    def test_linear_fused(self):
        x0 = RNG.standard_normal((5, 3))
        w0 = RNG.standard_normal((4, 3))
        b0 = RNG.standard_normal((4,))
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        w = Tensor(w0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        out = serial.linear(x, w, b)
        (out * out).sum().backward()

        def loss(arr):
            out = serial.linear(Tensor(x0, dtype=np.float64), Tensor(arr, dtype=np.float64), Tensor(b0, dtype=np.float64))
            return (out * out).sum().item()

        numeric_w = numeric_gradient(loss, w0)
        np.testing.assert_allclose(w.grad, numeric_w, **TOL)
        assert b.grad.shape == (4,)
        assert x.grad.shape == (5, 3)


class TestShapeOpGradients:
    def test_reshape(self):
        x0 = RNG.standard_normal((2, 6))
        check_gradient(lambda x: (x.reshape(3, 4) * np.arange(4.0)).sum(), x0)

    def test_log_softmax_gradients(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: (x.log_softmax(axis=-1) * np.arange(4)).sum(), x0)


class TestBackwardMechanics:
    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        y = x * 3
        z = (y + y * y).sum()
        z.backward()
        # d/dx (3x + 9x^2) = 3 + 18x = 39 at x=2
        np.testing.assert_allclose(x.grad, [39.0])

    def test_leaf_only_gradients_by_default(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2
        y.sum().backward()
        assert x.grad is not None
        assert y.grad is None

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor(np.ones(4), requires_grad=True)
        out = x
        for _ in range(500):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(4))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sum_gradient_is_ones_property(rows, cols, seed):
    """Property: d(sum(x))/dx == 1 for every element, any shape."""
    data = np.random.default_rng(seed).standard_normal((rows, cols))
    x = Tensor(data, requires_grad=True, dtype=np.float64)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((rows, cols)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_log_softmax_rows_sum_to_one_property(seed):
    """Property: exp(log_softmax) is a probability distribution per row."""
    data = np.random.default_rng(seed).standard_normal((4, 6)) * 5
    out = np.exp(Tensor(data).log_softmax(axis=-1).data)
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-5)
