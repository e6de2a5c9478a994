"""Tests for max pooling (through the serial oracle's tape)."""

import numpy as np
import pytest

from tests import serial
from tests.helpers import numeric_gradient
from tests.serial import Tensor

RNG = np.random.default_rng(11)


class TestMaxPool:
    def test_forward_matches_reference(self):
        x = RNG.standard_normal((2, 3, 6, 6))
        out = serial.max_pool2d(Tensor(x, dtype=np.float64), 2)
        expected = x.reshape(2, 3, 3, 2, 3, 2).max(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected)

    def test_forward_with_stride(self):
        x = RNG.standard_normal((1, 1, 5, 5))
        out = serial.max_pool2d(Tensor(x), 3, stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx(x[0, 0, :3, :3].max(), rel=1e-6)

    def test_gradient(self):
        x0 = RNG.standard_normal((2, 2, 6, 6))
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        out = serial.max_pool2d(x, 2)
        (out * out).sum().backward()

        def loss(arr):
            out = serial.max_pool2d(Tensor(arr, dtype=np.float64), 2)
            return (out * out).sum().item()

        numeric = numeric_gradient(loss, x0)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-5, atol=1e-6)

    def test_gradient_routes_to_argmax_only(self):
        x0 = np.zeros((1, 1, 2, 2))
        x0[0, 0, 1, 1] = 5.0
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        serial.max_pool2d(x, 2).sum().backward()
        expected = np.zeros_like(x0)
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(x.grad, expected)
