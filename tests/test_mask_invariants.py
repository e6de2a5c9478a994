"""Invariants of fault-mask enforcement over long optimisation runs.

These guard the in-place keep-multiplier path of the serial reference loop
(``tests/helpers.py``: ``ReferenceTrainer``, which the stacked trainer must
equal bit for bit): after any number of steps, under any optimizer,

* every masked weight must be *exactly* zero (not merely small), and
* the optimizer state (momentum / Adam moments) of masked entries must not
  accumulate — otherwise a later unmasking or LR change would release stale
  updates into weights that hardware forces to zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.models import MLP
from repro.training import TrainingConfig
from tests.helpers import ReferenceTrainer, resolve_masked_parameters, verify_masks_enforced


def _small_cnn(image_bundle):
    channels = image_bundle.input_shape[0]
    return nn.Sequential(
        nn.Conv2d(channels, 4, 3, padding=1, rng=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 6, 3, padding=1, rng=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 2 * 2, image_bundle.num_classes, rng=2),
    )


def _masked_state_entries(optimizer, model, masks):
    """Optimizer state slices for masked weight positions, by state key."""
    params = optimizer.parameters
    name_by_id = {id(param): name for name, param in model.named_parameters()}
    entries = []
    for index, param in enumerate(params):
        name = name_by_id[id(param)]
        layer = name.rsplit(".", 1)[0]
        if layer not in masks or not name.endswith("weight"):
            continue
        mask = masks[layer]
        state = optimizer.state.get(index, {})
        for key in ("momentum", "m", "v"):
            if key in state:
                entries.append((name, key, state[key][mask]))
    return entries


@pytest.mark.parametrize(
    "config",
    [
        TrainingConfig(optimizer="sgd", learning_rate=0.05, momentum=0.9, weight_decay=5e-4, batch_size=16, seed=0),
        TrainingConfig(optimizer="adam", learning_rate=1e-3, weight_decay=1e-4, batch_size=16, seed=1),
        TrainingConfig(optimizer="adamw", learning_rate=1e-3, weight_decay=1e-2, batch_size=16, seed=2),
    ],
    ids=["sgd-momentum", "adam", "adamw"],
)
def test_masks_and_optimizer_state_stay_clean(image_bundle, config):
    model = _small_cnn(image_bundle)
    masks = model_fault_masks(model, FaultMap.random(12, 12, 0.25, seed=7))
    trainer = ReferenceTrainer(
        model, image_bundle.train, image_bundle.test, config=config, masks=masks
    )

    assert verify_masks_enforced(model, masks, atol=0.0)
    for _ in range(5):
        trainer._train_steps(10)
        # Masked weights are exactly zero after every chunk of steps.
        assert verify_masks_enforced(model, masks, atol=0.0)
        # No optimizer state accumulates for masked entries.
        entries = _masked_state_entries(trainer.optimizer, model, masks)
        assert entries, "expected masked optimizer state to be inspected"
        for name, key, values in entries:
            assert np.all(values == 0.0), f"state {key!r} of {name!r} leaked into masked entries"
    # Unmasked weights did actually train.
    assert trainer.steps_taken == 50


def test_masked_weights_exact_zero_under_grad_clipping(image_bundle):
    config = TrainingConfig(
        optimizer="sgd", learning_rate=0.5, momentum=0.9, weight_decay=5e-4,
        grad_clip=0.5, batch_size=8, seed=3,
    )
    model = MLP(
        int(np.prod(image_bundle.input_shape)), image_bundle.num_classes,
        hidden_sizes=(24, 16), seed=5,
    )
    masks = model_fault_masks(model, FaultMap.random(8, 8, 0.3, seed=11))
    trainer = ReferenceTrainer(
        model, image_bundle.train, image_bundle.test, config=config, masks=masks
    )
    trainer._train_steps(40)
    assert verify_masks_enforced(model, masks, atol=0.0)


def test_resolve_masked_parameters_validation(image_bundle):
    model = MLP(int(np.prod(image_bundle.input_shape)), image_bundle.num_classes, seed=0)
    with pytest.raises(KeyError):
        resolve_masked_parameters(model, {"missing.layer": np.zeros((1, 1), dtype=bool)})
    name, module = next(
        (n, m) for n, m in model.named_modules() if isinstance(m, nn.Linear)
    )
    with pytest.raises(ValueError):
        resolve_masked_parameters(model, {name: np.zeros((1, 1), dtype=bool)})


def test_keep_multipliers_match_masks(image_bundle):
    model = MLP(int(np.prod(image_bundle.input_shape)), image_bundle.num_classes, seed=0)
    masks = model_fault_masks(model, FaultMap.random(8, 8, 0.2, seed=3))
    resolved = resolve_masked_parameters(model, masks)
    assert {m.name for m in resolved} == set(masks)
    for masked in resolved:
        assert masked.keep.dtype == np.float32
        np.testing.assert_array_equal(masked.keep == 0.0, masked.mask)
        np.testing.assert_array_equal(masked.keep == 1.0, ~masked.mask)
