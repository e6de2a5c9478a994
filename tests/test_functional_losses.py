"""Tests for the serial oracle's losses (cross-entropy and NLL)."""

import numpy as np
import pytest

from tests import serial
from tests.helpers import numeric_gradient
from tests.serial import Tensor

RNG = np.random.default_rng(3)


def reference_cross_entropy(logits, targets):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(targets)), targets].mean()


class TestCrossEntropy:
    def test_matches_reference(self):
        logits = RNG.standard_normal((6, 5))
        targets = RNG.integers(0, 5, 6)
        loss = serial.cross_entropy(Tensor(logits, dtype=np.float64), targets)
        assert loss.item() == pytest.approx(reference_cross_entropy(logits, targets), rel=1e-6)

    def test_perfect_prediction_gives_small_loss(self):
        logits = np.full((4, 3), -20.0)
        targets = np.array([0, 1, 2, 0])
        logits[np.arange(4), targets] = 20.0
        loss = serial.cross_entropy(Tensor(logits), targets)
        assert loss.item() < 1e-3

    def test_gradient(self):
        logits0 = RNG.standard_normal((5, 4))
        targets = RNG.integers(0, 4, 5)
        logits = Tensor(logits0, requires_grad=True, dtype=np.float64)
        serial.cross_entropy(logits, targets).backward()
        numeric = numeric_gradient(
            lambda arr: serial.cross_entropy(Tensor(arr, dtype=np.float64), targets).item(), logits0
        )
        np.testing.assert_allclose(logits.grad, numeric, rtol=1e-5, atol=1e-6)

    def test_gradient_sums_to_zero_per_sample(self):
        logits = Tensor(RNG.standard_normal((3, 6)), requires_grad=True, dtype=np.float64)
        serial.cross_entropy(logits, np.array([1, 2, 3])).backward()
        np.testing.assert_allclose(logits.grad.sum(axis=1), np.zeros(3), atol=1e-8)

    def test_reductions(self):
        logits = RNG.standard_normal((4, 3))
        targets = np.array([0, 1, 2, 0])
        mean_loss = serial.cross_entropy(Tensor(logits, dtype=np.float64), targets, reduction="mean").item()
        sum_loss = serial.cross_entropy(Tensor(logits, dtype=np.float64), targets, reduction="sum").item()
        none_loss = serial.cross_entropy(Tensor(logits, dtype=np.float64), targets, reduction="none")
        assert sum_loss == pytest.approx(mean_loss * 4, rel=1e-6)
        assert none_loss.shape == (4,)

    def test_label_smoothing_increases_loss_on_confident_predictions(self):
        logits = np.full((4, 3), -20.0)
        targets = np.array([0, 1, 2, 0])
        logits[np.arange(4), targets] = 20.0
        plain = serial.cross_entropy(Tensor(logits), targets).item()
        smoothed = serial.cross_entropy(Tensor(logits), targets, label_smoothing=0.1).item()
        assert smoothed > plain

    def test_invalid_label_smoothing(self):
        with pytest.raises(ValueError):
            serial.cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1]), label_smoothing=1.5)


class TestNll:
    def test_matches_manual(self):
        log_probs = np.log(np.full((3, 4), 0.25))
        loss = serial.nll_loss(Tensor(log_probs), np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(-np.log(0.25), rel=1e-6)

    def test_target_length_mismatch(self):
        with pytest.raises(ValueError):
            serial.nll_loss(Tensor(np.zeros((3, 2))), np.array([0, 1]))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            serial.nll_loss(Tensor(np.zeros(3)), np.array([0, 1, 2]))
