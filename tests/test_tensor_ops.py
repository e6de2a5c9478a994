"""Unit tests for the serial oracle's Tensor arithmetic, reductions and shape ops."""

import numpy as np
import pytest

from tests.serial import Tensor, is_grad_enabled, no_grad


class TestConstruction:
    def test_from_list_defaults_to_float32(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32
        assert t.shape == (2, 2)

    def test_from_numpy_keeps_float64(self):
        t = Tensor(np.zeros((3,), dtype=np.float64))
        assert t.dtype == np.float64

    def test_properties(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        assert t.ndim == 2
        assert t.size == 12
        assert len(t) == 3
        assert "Tensor" in repr(t)

    def test_item_requires_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestArithmetic:
    def test_add_sub_mul(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert np.allclose((a + b).data, [5, 7, 9])
        assert np.allclose((a - b).data, [-3, -3, -3])
        assert np.allclose((a * b).data, [4, 10, 18])

    def test_broadcasting(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3, dtype=np.float32))
        assert (a + b).shape == (2, 3)
        assert (a * b).shape == (2, 3)

    def test_activations(self):
        a = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(a.relu().data, [0, 0, 2])


class TestReductions:
    def test_sum_mean(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert a.sum().item() == pytest.approx(15)
        assert a.mean().item() == pytest.approx(2.5)
        assert np.allclose(a.sum(axis=0).data, [3, 5, 7])
        assert np.allclose(a.mean(axis=1).data, [1, 4])
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_log_softmax(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], dtype=np.float32)
        probabilities = np.exp(Tensor(logits).log_softmax(axis=-1).data)
        assert np.allclose(probabilities.sum(axis=-1), 1.0)
        expected = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        assert np.allclose(probabilities, expected, atol=1e-6)


class TestShapeOps:
    def test_reshape_flatten(self):
        a = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        assert a.reshape(6, 4).shape == (6, 4)
        assert a.reshape((4, 6)).shape == (4, 6)
        assert a.flatten().shape == (2, 12)
        assert a.flatten(start_dim=2).shape == (2, 3, 4)


class TestGradMode:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2
        assert out._ctx is None
        assert not out.requires_grad
