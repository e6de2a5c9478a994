"""Tests for the mitigation techniques: saliency, FAP, FAM and FAT masks."""

import numpy as np
import pytest

from repro import nn
from repro.accelerator import (
    BatchedFaultTrainer,
    FaultMap,
    SystolicArray,
    evaluate_chip_accuracies,
    masked_weight_fraction,
    model_fault_masks,
)
from repro.mitigation import (
    compute_column_permutations,
    get_saliency_metric,
    layer_column_permutation,
    magnitude_saliency,
    output_channel_saliency,
    parse_strategy,
    squared_saliency,
)
from repro.models import MLP
from repro.training import TrainingConfig, evaluate_accuracy
from tests.helpers import enforce_weight_masks, masked_saliency, verify_masks_enforced


@pytest.fixture
def mlp_and_map(image_bundle):
    features = int(np.prod(image_bundle.input_shape))
    model = MLP(features, image_bundle.num_classes, hidden_sizes=(32,), seed=0)
    fault_map = FaultMap.random(16, 16, 0.25, seed=4)
    return model, fault_map


def _fam_masks(model, fault_map):
    """FAM masks: the fault masks under the saliency-driven permutations."""
    return model_fault_masks(model, fault_map, compute_column_permutations(model, fault_map))


class TestSaliency:
    def test_magnitude_and_squared(self):
        matrix = np.array([[1.0, -2.0], [0.5, 0.0]])
        np.testing.assert_allclose(magnitude_saliency(matrix), np.abs(matrix))
        np.testing.assert_allclose(squared_saliency(matrix), matrix ** 2)

    def test_metric_lookup(self):
        assert get_saliency_metric("L1") is magnitude_saliency
        assert get_saliency_metric("l2") is squared_saliency
        with pytest.raises(KeyError):
            get_saliency_metric("taylor")

    def test_output_channel_saliency_shape(self):
        layer = nn.Linear(10, 6, rng=0)
        saliency = output_channel_saliency(layer)
        assert saliency.shape == (6,)
        assert np.all(saliency >= 0)

    def test_conv_channel_saliency(self):
        layer = nn.Conv2d(3, 5, 3, rng=0)
        assert output_channel_saliency(layer).shape == (5,)


class TestFAP:
    def test_apply_zeroes_masked_weights(self, mlp_and_map):
        model, fault_map = mlp_and_map
        masks = model_fault_masks(model, fault_map)
        enforce_weight_masks(model, masks)
        assert verify_masks_enforced(model, masks)
        assert masked_weight_fraction(masks) == pytest.approx(0.25, abs=0.05)
        assert sum(int(mask.sum()) for mask in masks.values()) > 0
        assert set(masks) == {"body.0", "body.2"}

    def test_accepts_systolic_array(self, mlp_and_map):
        model, fault_map = mlp_and_map
        array = SystolicArray(16, 16, fault_map=fault_map)
        masks = model_fault_masks(model, array)
        assert set(masks) == {"body.0", "body.2"}

    def test_fap_reduces_accuracy(self, image_bundle):
        from repro.training import Trainer

        features = int(np.prod(image_bundle.input_shape))
        model = MLP(features, image_bundle.num_classes, hidden_sizes=(24,), seed=0)
        Trainer(
            model, image_bundle.train, image_bundle.test,
            TrainingConfig(learning_rate=0.1, batch_size=16, seed=0),
        ).train(4.0)
        clean = evaluate_accuracy(model, image_bundle.test)
        masks = parse_strategy("fap").chip_masks(model, FaultMap.random(16, 16, 0.6, seed=0))
        (faulty,) = evaluate_chip_accuracies(model, image_bundle.test, [masks])
        assert faulty <= clean

    def test_verify_detects_violation(self, mlp_and_map):
        model, fault_map = mlp_and_map
        masks = model_fault_masks(model, fault_map)
        enforce_weight_masks(model, masks)
        model.body[0].weight.data[masks["body.0"]] = 1.0
        assert not verify_masks_enforced(model, masks)

    def test_verify_handles_missing_layer(self, mlp_and_map):
        model, _ = mlp_and_map
        assert not verify_masks_enforced(model, {"ghost": np.zeros((2, 2), dtype=bool)})


class TestFAM:
    def test_permutation_is_valid(self, mlp_and_map):
        model, fault_map = mlp_and_map
        permutation = layer_column_permutation(model.body[0], fault_map)
        assert sorted(permutation.tolist()) == list(range(fault_map.cols))

    def test_permutations_for_all_layers(self, mlp_and_map):
        model, fault_map = mlp_and_map
        permutations = compute_column_permutations(model, fault_map)
        assert set(permutations) == {"body.0", "body.2"}

    def test_fam_does_not_increase_masked_saliency(self, mlp_and_map):
        model, fault_map = mlp_and_map
        fam = masked_saliency(model, _fam_masks(model, fault_map))
        baseline = masked_saliency(model, model_fault_masks(model, fault_map))
        assert fam <= baseline + 1e-9
        saving = 1.0 - fam / baseline if baseline else 0.0
        assert 0.0 <= saving <= 1.0

    def test_fam_masks_same_count_on_aligned_layers(self, mlp_and_map):
        """For layers whose GEMM dims tile the array exactly, remapping columns
        cannot change how many weights land on faulty PEs (only which ones)."""
        model, fault_map = mlp_and_map
        fam_masks = _fam_masks(model, fault_map)
        fap_masks = model_fault_masks(model, fault_map)
        # body.0 is 128x32 on a 16x16 array: both dimensions are exact multiples.
        assert fam_masks["body.0"].sum() == fap_masks["body.0"].sum()

    def test_fam_can_reduce_masked_weights_on_unaligned_layers(self, mlp_and_map):
        """The final layer uses only 4 of the 16 array columns; FAM may steer it
        away from faulty columns, so it never masks more weights than naive FAP."""
        model, fault_map = mlp_and_map
        fam_masks = _fam_masks(model, fault_map)
        fap_masks = model_fault_masks(model, fault_map)
        total_fam = sum(int(m.sum()) for m in fam_masks.values())
        total_fap = sum(int(m.sum()) for m in fap_masks.values())
        assert total_fam <= total_fap + int(fap_masks["body.2"].sum())

    def test_prune_enforces_masks(self, mlp_and_map, image_bundle):
        """The ``fam`` strategy's chip masks are the permuted fault masks, and
        a stack built under them starts with those weights pruned."""
        model, fault_map = mlp_and_map
        masks = parse_strategy("fam").chip_masks(model, fault_map)
        expected = _fam_masks(model, fault_map)
        assert set(masks) == set(expected)
        for name in masks:
            np.testing.assert_array_equal(masks[name], expected[name])
        stack = BatchedFaultTrainer(model, [masks], image_bundle.train, image_bundle.test)
        model.load_state_dict(stack.chip_state_dict(0))
        assert verify_masks_enforced(model, masks)


class TestFAT:
    def test_retraining_recovers_accuracy(self, image_bundle):
        from repro.training import Trainer

        features = int(np.prod(image_bundle.input_shape))
        model = MLP(features, image_bundle.num_classes, hidden_sizes=(24,), seed=0)
        config = TrainingConfig(learning_rate=0.1, batch_size=16, seed=0)
        Trainer(model, image_bundle.train, image_bundle.test, config).train(4.0)

        masks = parse_strategy("fat").chip_masks(model, FaultMap.random(16, 16, 0.5, seed=1))
        stack = BatchedFaultTrainer(
            model, [masks], image_bundle.train, image_bundle.test, config=config
        )
        history = stack.train(2.0, eval_checkpoints=[0.5, 1.0])[0]
        assert history.final_accuracy >= history.records[0].eval_accuracy
        assert history.total_epochs == pytest.approx(2.0)
        model.load_state_dict(stack.chip_state_dict(0))
        assert verify_masks_enforced(model, masks)
        assert 0.0 < masked_weight_fraction(masks) < 1.0
        assert history.epochs == [0.0, 0.5, 1.0, 2.0]
