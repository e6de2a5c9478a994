"""Tests for the model zoo (MLP, LeNet-5, VGG11) and the registry."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    MLP,
    LeNet5,
    VGG,
    VGG11_CONFIG,
    available_models,
    build_model,
    vgg11,
)
from tests.serial import serial_forward

RNG = np.random.default_rng(0)


def _batch(shape, n=2):
    return nn.Tensor(RNG.standard_normal((n,) + tuple(shape)).astype(np.float32))


class TestMLP:
    def test_forward_shape(self):
        model = MLP(20, 5, hidden_sizes=(16, 8), seed=0)
        assert serial_forward(model, _batch((20,), n=3)).shape == (3, 5)

    def test_flattens_images(self):
        model = MLP(2 * 4 * 4, 3, hidden_sizes=(8,), seed=0)
        assert serial_forward(model, _batch((2, 4, 4))).shape == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            MLP(0, 3)
        with pytest.raises(ValueError):
            MLP(4, 1)
        with pytest.raises(ValueError):
            MLP(4, 3, hidden_sizes=(0,))

    def test_deterministic_by_seed(self):
        a = MLP(6, 3, hidden_sizes=(4,), seed=9)
        b = MLP(6, 3, hidden_sizes=(4,), seed=9)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)


class TestLeNet5:
    def test_forward_shape(self):
        model = LeNet5(input_shape=(3, 16, 16), num_classes=7, seed=0)
        assert serial_forward(model, _batch((3, 16, 16))).shape == (2, 7)

    def test_works_on_minimum_size(self):
        model = LeNet5(input_shape=(1, 12, 12), num_classes=4, seed=0)
        assert serial_forward(model, _batch((1, 12, 12))).shape == (2, 4)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            LeNet5(input_shape=(1, 8, 8))
        with pytest.raises(ValueError):
            LeNet5(input_shape=(8, 8))


class TestVGG:
    def test_vgg11_layer_plan(self):
        model = vgg11(input_shape=(3, 32, 32), num_classes=10, width_multiplier=0.125, seed=0)
        conv_layers = [m for _, m in model.named_modules() if isinstance(m, nn.Conv2d)]
        pool_layers = [m for _, m in model.named_modules() if isinstance(m, nn.MaxPool2d)]
        assert len(conv_layers) == 8  # VGG11 has 8 conv layers
        assert len(pool_layers) == 5
        assert serial_forward(model, _batch((3, 32, 32))).shape == (2, 10)

    def test_width_multiplier_scales_channels(self):
        narrow = vgg11(input_shape=(3, 32, 32), width_multiplier=0.125, seed=0)
        wide = vgg11(input_shape=(3, 32, 32), width_multiplier=0.25, seed=0)
        assert sum(p.data.size for p in wide.parameters()) > sum(p.data.size for p in narrow.parameters())

    def test_small_input_skips_pools(self):
        model = vgg11(input_shape=(3, 8, 8), num_classes=10, width_multiplier=0.125, seed=0)
        assert model.skipped_pools >= 2
        assert serial_forward(model, _batch((3, 8, 8))).shape == (2, 10)
        assert model.final_spatial >= 1

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            VGG(VGG11_CONFIG, input_shape=(3, 32), num_classes=10)
        with pytest.raises(ValueError):
            VGG(VGG11_CONFIG, width_multiplier=0.0)


class TestRegistry:
    def test_available_models(self):
        assert available_models() == ("lenet5", "mlp", "vgg11")

    def test_build_by_name(self):
        model = build_model("mlp", (3, 8, 8), 5, seed=0, hidden_sizes=(16,))
        assert serial_forward(model, _batch((3, 8, 8))).shape == (2, 5)

    def test_build_paper_vgg11_by_name(self):
        model = build_model("vgg11", (3, 16, 16), 10, seed=0, width_multiplier=0.25)
        assert sum(1 for _, m in model.named_modules() if isinstance(m, nn.Conv2d)) == 8
        assert serial_forward(model, _batch((3, 16, 16))).shape == (2, 10)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet900", (3, 8, 8), 5)
