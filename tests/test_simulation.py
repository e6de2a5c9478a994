"""Tests for the functional faulty-array simulation (FAP/hardware equivalence)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.accelerator import FaultMap, SystolicArray, layer_fault_mask, model_fault_masks
from repro.models import MLP

from tests.serial import apply_weight_masks, serial_forward
from tests.simulation import (
    model_masks_match_hardware,
    simulate_gemm_on_array,
    simulate_linear_layer,
)

RNG = np.random.default_rng(0)


class TestGemmSimulation:
    def test_fault_free_matches_plain_matmul(self):
        activations = RNG.standard_normal((5, 12))
        weights = RNG.standard_normal((7, 12))
        result = simulate_gemm_on_array(activations, weights, FaultMap.none(4, 4))
        np.testing.assert_allclose(result, activations @ weights.T, rtol=1e-6)

    def test_fully_faulty_array_outputs_zero(self):
        activations = RNG.standard_normal((3, 8))
        weights = RNG.standard_normal((6, 8))
        all_faulty = FaultMap(np.ones((4, 4), dtype=bool))
        result = simulate_gemm_on_array(activations, weights, all_faulty)
        np.testing.assert_allclose(result, np.zeros((3, 6)))

    def test_single_faulty_pe_removes_expected_contributions(self):
        activations = np.ones((1, 4))
        weights = np.ones((4, 4))
        fault_map = FaultMap.from_indices(4, 4, [(1, 2)])  # reduce index 1, output 2
        result = simulate_gemm_on_array(activations, weights, fault_map)
        expected = np.full((1, 4), 4.0)
        expected[0, 2] = 3.0  # one contribution bypassed for output 2
        np.testing.assert_allclose(result, expected)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            simulate_gemm_on_array(np.ones((2, 3)), np.ones((4, 5)), FaultMap.none(2, 2))
        with pytest.raises(ValueError):
            simulate_gemm_on_array(np.ones(3), np.ones((4, 3)), FaultMap.none(2, 2))


class TestLayerEquivalence:
    def test_linear_layer_simulation_includes_bias(self):
        layer = nn.Linear(10, 6, rng=0)
        inputs = RNG.standard_normal((4, 10)).astype(np.float32)
        fault_map = FaultMap.random(8, 8, 0.3, seed=1)
        hardware = simulate_linear_layer(layer, inputs, fault_map)
        mask = layer_fault_mask(layer, fault_map)
        masked = np.where(mask, 0.0, layer.weight.data)
        expected = inputs @ masked.T + layer.bias.data
        np.testing.assert_allclose(hardware, expected, rtol=1e-5, atol=1e-6)

    def test_fap_masked_model_equals_hardware_execution(self):
        """Zeroing the chip's FAP masks in software is exactly running the
        model on the faulty chip."""
        model = MLP(16, 4, hidden_sizes=(12,), seed=0)
        fault_map = FaultMap.random(8, 8, 0.25, seed=2)
        inputs = RNG.standard_normal((5, 16)).astype(np.float32)

        # Hardware view: simulate each layer on the faulty array, layer by layer.
        hidden_hw = simulate_linear_layer(model.body[0], inputs, fault_map)
        hidden_hw = np.maximum(hidden_hw, 0.0)
        logits_hw = simulate_linear_layer(model.body[2], hidden_hw, fault_map)

        # Software view: zero the masked weights and run the model normally.
        apply_weight_masks(model, model_fault_masks(model, fault_map))
        logits_sw = serial_forward(model, nn.Tensor(inputs)).data

        np.testing.assert_allclose(logits_hw, logits_sw, rtol=1e-4, atol=1e-5)

    def test_model_masks_match_hardware_helper(self):
        model = MLP(16, 4, hidden_sizes=(12,), seed=1)
        inputs = RNG.standard_normal((3, 16)).astype(np.float32)
        fault_map = FaultMap.random(8, 8, 0.4, seed=3)
        assert model_masks_match_hardware(model, fault_map, inputs)
        assert model_masks_match_hardware(model, SystolicArray(8, 8, fault_map=fault_map), inputs)


@settings(max_examples=20, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_simulated_output_never_exceeds_dense_contribution(rate, seed):
    """Property: on all-ones inputs/weights, bypassing PEs can only shrink outputs."""
    activations = np.ones((2, 12))
    weights = np.ones((6, 12))
    fault_map = FaultMap.random(6, 6, rate, seed=seed)
    result = simulate_gemm_on_array(activations, weights, fault_map)
    dense = activations @ weights.T
    assert np.all(result <= dense + 1e-9)
    assert np.all(result >= 0.0)
