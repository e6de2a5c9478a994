"""Tests for the timing model, energy model and the PE-bypass baseline."""

import numpy as np
import pytest

from repro.accelerator import (
    FaultMap,
    GemmWorkload,
    SystolicArray,
    best_bypass_plan,
    bypass_slowdown,
    bypass_timing,
    column_bypass_plan,
    estimate_model_energy,
    estimate_model_timing,
    gemm_cycles,
    gemm_energy,
    gemm_utilization,
    model_gemm_workloads,
    row_bypass_plan,
)
from repro.accelerator.timing import conv_output_size
from repro.models import MLP, LeNet5


class TestGemmTiming:
    def test_single_tile_cycles(self):
        workload = GemmWorkload("layer", m=100, k=32, n=32)
        cycles = gemm_cycles(workload, 32, 32)
        assert cycles == 32 + (32 + 32 - 2) + 100  # load + pipeline + stream

    def test_multi_tile_scales_with_tiles(self):
        workload = GemmWorkload("layer", m=10, k=64, n=96)
        assert gemm_cycles(workload, 32, 32) == 2 * 3 * (32 + 62 + 10)

    def test_utilization_bounds(self):
        workload = GemmWorkload("layer", m=1000, k=32, n=32)
        utilization = gemm_utilization(workload, 32, 32)
        assert 0.0 < utilization <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmWorkload("bad", m=0, k=1, n=1)
        with pytest.raises(ValueError):
            gemm_cycles(GemmWorkload("x", 1, 1, 1), 0, 4)

    def test_conv_output_size(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 3, 2, 1) == 16
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestModelWorkloads:
    def test_mlp_workloads(self):
        model = MLP(20, 5, hidden_sizes=(16,), seed=0)
        workloads = model_gemm_workloads(model, (20,), batch_size=4)
        assert len(workloads) == 2
        assert workloads[0].m == 4 and workloads[0].k == 20 and workloads[0].n == 16

    def test_lenet_workloads_track_spatial_sizes(self):
        model = LeNet5(input_shape=(3, 16, 16), num_classes=10, seed=0)
        workloads = model_gemm_workloads(model, (3, 16, 16), batch_size=1)
        # conv1 on 16x16 padded -> 16x16 outputs; conv2 on 8x8 -> 4x4 outputs.
        assert workloads[0].m == 16 * 16
        assert workloads[1].m == 4 * 4
        assert len(workloads) == 2 + 3  # 2 convs + 3 linears

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            model_gemm_workloads(MLP(4, 2, hidden_sizes=(), seed=0), (4,), batch_size=0)


class TestModelTiming:
    def test_totals_are_sums(self):
        model = MLP(64, 10, hidden_sizes=(32,), seed=0)
        timing = estimate_model_timing(model, SystolicArray(32, 32), (64,), batch_size=8)
        assert timing.total_cycles == sum(layer.cycles for layer in timing.layers)
        assert timing.total_macs == 8 * (64 * 32 + 32 * 10)
        assert timing.latency_ms > 0
        assert 0 < timing.utilization <= 1
        assert set(timing.per_layer()) == {layer.name for layer in timing.layers}

    def test_smaller_effective_array_is_slower(self):
        model = MLP(64, 10, hidden_sizes=(64,), seed=0)
        array = SystolicArray(32, 32)
        full = estimate_model_timing(model, array, (64,))
        shrunk = estimate_model_timing(model, array, (64,), effective_rows=16, effective_cols=16)
        assert shrunk.total_cycles > full.total_cycles

    def test_invalid_effective_size(self):
        model = MLP(8, 2, hidden_sizes=(), seed=0)
        with pytest.raises(ValueError):
            estimate_model_timing(model, SystolicArray(8, 8), (8,), effective_rows=0)


class TestEnergy:
    def test_components_positive_and_additive(self):
        workload = GemmWorkload("layer", m=64, k=128, n=32)
        array = SystolicArray(32, 32)
        energy = gemm_energy(workload, array.technology, 32, 32)
        assert energy.mac_nj > 0 and energy.sram_nj > 0 and energy.dram_nj > 0
        assert energy.total_nj == pytest.approx(energy.mac_nj + energy.sram_nj + energy.dram_nj)

    def test_zero_weight_fraction_saves_mac_energy(self):
        workload = GemmWorkload("layer", m=64, k=128, n=32)
        tech = SystolicArray(32, 32).technology
        dense = gemm_energy(workload, tech, 32, 32, zero_weight_fraction=0.0)
        pruned = gemm_energy(workload, tech, 32, 32, zero_weight_fraction=0.5)
        assert pruned.mac_nj == pytest.approx(0.5 * dense.mac_nj)
        assert pruned.sram_nj == dense.sram_nj
        with pytest.raises(ValueError):
            gemm_energy(workload, tech, 32, 32, zero_weight_fraction=1.5)

    def test_model_energy(self):
        model = MLP(64, 10, hidden_sizes=(32,), seed=0)
        energy = estimate_model_energy(model, SystolicArray(32, 32), (64,), batch_size=2)
        assert energy.total_nj > 0
        assert len(energy.per_layer()) == 2


class TestBypass:
    def test_plans_count_hit_rows_and_columns(self):
        fault_map = FaultMap.from_indices(8, 8, [(0, 0), (0, 3), (5, 3)])
        column_plan = column_bypass_plan(fault_map)
        row_plan = row_bypass_plan(fault_map)
        assert column_plan.effective_cols == 6  # columns 0 and 3 bypassed
        assert row_plan.effective_rows == 6  # rows 0 and 5 bypassed
        assert best_bypass_plan(fault_map).surviving_pe_fraction == pytest.approx(0.75)

    def test_infeasible_when_everything_hit(self):
        fault_map = FaultMap(np.eye(4, dtype=bool))
        with pytest.raises(ValueError):
            column_bypass_plan(fault_map)
        with pytest.raises(ValueError):
            best_bypass_plan(fault_map)

    def test_bypass_slowdown_at_least_one(self):
        model = MLP(64, 10, hidden_sizes=(64,), seed=0)
        fault_map = FaultMap.random(32, 32, 0.05, seed=0)
        array = SystolicArray(32, 32, fault_map=fault_map)
        slowdown = bypass_slowdown(model, array, (64,))
        assert slowdown >= 1.0

    def test_fap_keeps_full_throughput_unlike_bypass(self):
        """The motivation of FAP (paper §I): no performance penalty, unlike bypass."""
        model = MLP(64, 10, hidden_sizes=(64,), seed=0)
        fault_map = FaultMap.random(32, 32, 0.1, seed=1)
        array = SystolicArray(32, 32, fault_map=fault_map)
        fap_timing = estimate_model_timing(model, array, (64,))  # FAP: full array
        _, bypass_t = bypass_timing(model, array, (64,), plan="best")
        assert fap_timing.total_cycles < bypass_t.total_cycles

    def test_unknown_plan(self):
        model = MLP(8, 2, hidden_sizes=(), seed=0)
        array = SystolicArray(8, 8, fault_map=FaultMap.random(8, 8, 0.1, seed=0))
        with pytest.raises(ValueError):
            bypass_timing(model, array, (8,), plan="teleport")
