"""Tests for individual layers (shapes, modes, parameter handling)."""

import numpy as np
import pytest

from repro import nn
from tests.serial import serial_forward

RNG = np.random.default_rng(5)


class TestLinear:
    def test_shapes_and_bias(self):
        layer = nn.Linear(6, 4, rng=0)
        out = serial_forward(layer, nn.Tensor(RNG.standard_normal((3, 6)).astype(np.float32)))
        assert out.shape == (3, 4)
        assert layer.weight.shape == (4, 6)
        assert layer.bias.shape == (4,)

    def test_no_bias(self):
        layer = nn.Linear(6, 4, bias=False, rng=0)
        assert layer.bias is None
        assert set(dict(layer.named_parameters())) == {"weight"}

    def test_flattens_higher_rank_inputs(self):
        layer = nn.Linear(12, 2, rng=0)
        out = serial_forward(layer, nn.Tensor(RNG.standard_normal((5, 3, 2, 2)).astype(np.float32)))
        assert out.shape == (5, 2)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 4)

    def test_deterministic_with_seed(self):
        a = nn.Linear(5, 5, rng=123)
        b = nn.Linear(5, 5, rng=123)
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestConv2d:
    def test_output_shape(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, stride=1, padding=1, rng=0)
        out = serial_forward(layer, nn.Tensor(RNG.standard_normal((2, 3, 10, 10)).astype(np.float32)))
        assert out.shape == (2, 8, 10, 10)

    def test_stride_changes_spatial_size(self):
        layer = nn.Conv2d(1, 4, kernel_size=3, stride=2, padding=1, rng=0)
        out = serial_forward(layer, nn.Tensor(np.zeros((1, 1, 9, 9), dtype=np.float32)))
        assert out.shape == (1, 4, 5, 5)

    def test_no_bias_option(self):
        layer = nn.Conv2d(2, 4, 3, bias=False, rng=0)
        assert layer.bias is None

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            nn.Conv2d(0, 3, 3)


class TestPoolingAndShape:
    def test_maxpool_module(self):
        layer = nn.MaxPool2d(2)
        out = serial_forward(layer, nn.Tensor(RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)))
        assert out.shape == (1, 2, 4, 4)

    def test_flatten(self):
        layer = nn.Flatten()
        out = serial_forward(layer, nn.Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 48)

class TestActivationsAndHeads:
    def test_activation_modules(self):
        x = nn.Tensor(np.array([[-1.0, 2.0]], dtype=np.float32))
        assert np.allclose(serial_forward(nn.ReLU(), x).data, [[0, 2]])
