"""Tests for the Module system: registration, traversal, state dicts, modes."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter, Sequential
from tests.serial import serial_forward


class TinyBlock(Module):
    def __init__(self):
        super().__init__()
        self.linear = nn.Linear(4, 3, rng=0)
        self.scale = Parameter(np.ones(3, dtype=np.float32))

    def forward(self, x):
        return serial_forward(self.linear, x) * self.scale


class TestRegistration:
    def test_parameters_and_modules_registered(self):
        block = TinyBlock()
        names = dict(block.named_parameters())
        assert set(names) == {"linear.weight", "linear.bias", "scale"}
        assert isinstance(block._modules["linear"], nn.Linear)

    def test_reassigning_attribute_unregisters(self):
        block = TinyBlock()
        block.scale = 3.0  # plain attribute now
        assert "scale" not in dict(block.named_parameters())

    def test_named_modules_includes_nested(self):
        model = Sequential(TinyBlock(), nn.ReLU())
        names = [name for name, _ in model.named_modules()]
        assert "0.linear" in names
        assert "1" in names


class TestTrainEval:
    def test_zero_grad(self):
        model = TinyBlock()
        out = model.forward(nn.Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            serial_forward(Module(), nn.Tensor(np.ones(2)))


class TestStateDict:
    def test_round_trip(self):
        source = TinyBlock()
        target = TinyBlock()
        # Make the models differ first.
        for p in target.parameters():
            p.data = p.data + 1.0
        target.load_state_dict(source.state_dict())
        for (name_a, a), (name_b, b) in zip(source.named_parameters(), target.named_parameters()):
            assert name_a == name_b
            np.testing.assert_allclose(a.data, b.data)

    def test_state_dict_copies_data(self):
        model = TinyBlock()
        state = model.state_dict()
        state["scale"][:] = 42.0
        assert not np.allclose(model.scale.data, 42.0)

    def test_strict_missing_key_raises(self):
        model = TinyBlock()
        state = model.state_dict()
        state.pop("scale")
        with pytest.raises(KeyError):
            model.load_state_dict(state)
        model.load_state_dict(state, strict=False)

    def test_strict_unexpected_key_raises(self):
        model = TinyBlock()
        state = model.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = TinyBlock()
        state = model.state_dict()
        state["scale"] = np.zeros(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

class TestContainers:
    def test_sequential_forward_and_indexing(self):
        model = Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
        out = serial_forward(model, nn.Tensor(np.ones((3, 4), dtype=np.float32)))
        assert out.shape == (3, 2)
        assert len(model) == 3
        assert isinstance(model[1], nn.ReLU)
        assert len(list(iter(model))) == 3

    def test_repr_contains_children(self):
        model = Sequential(nn.Linear(2, 2, rng=0), nn.ReLU())
        text = repr(model)
        assert "Linear" in text and "ReLU" in text
