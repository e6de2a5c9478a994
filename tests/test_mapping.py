"""Tests for the layer-to-array mapping and fault-mask generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.accelerator import (
    FaultMap,
    GemmShape,
    SystolicArray,
    expected_masked_fraction,
    gemm_fault_mask,
    layer_fault_mask,
    layer_gemm_shape,
    mappable_layers,
    masked_weight_fraction,
    model_fault_masks,
    model_mapping,
    weight_matrix_view,
)
from repro.models import MLP


def small_cnn():
    return nn.Sequential(
        nn.Conv2d(2, 4, 3, padding=1, rng=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 5, rng=1),
    )


class TestGemmShape:
    def test_linear_shape(self):
        layer = nn.Linear(12, 7, rng=0)
        gemm = layer_gemm_shape(layer)
        assert gemm.reduce_dim == 12 and gemm.output_dim == 7
        assert gemm.num_weights == 84

    def test_conv_shape(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, rng=0)
        gemm = layer_gemm_shape(layer)
        assert gemm.reduce_dim == 3 * 9 and gemm.output_dim == 8

    def test_unmappable_layer_raises(self):
        with pytest.raises(TypeError):
            layer_gemm_shape(nn.ReLU())
        with pytest.raises(TypeError):
            weight_matrix_view(nn.ReLU())

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GemmShape(0, 5)

    def test_mappable_layers_discovery(self):
        model = small_cnn()
        names = [name for name, _ in mappable_layers(model)]
        assert names == ["0", "4"]


class TestMaskGeneration:
    def test_single_fault_tiles_periodically(self):
        # Array 4x4 with a fault at PE (row=1, col=2).
        fault_map = FaultMap.from_indices(4, 4, [(1, 2)])
        gemm = GemmShape(reduce_dim=8, output_dim=8)  # 2x2 tiles
        mask = gemm_fault_mask(gemm, fault_map)  # (out, reduce) layout
        expected = np.zeros((8, 8), dtype=bool)
        for k in (1, 5):  # reduce indices congruent to 1 mod 4
            for n in (2, 6):  # output indices congruent to 2 mod 4
                expected[n, k] = True
        np.testing.assert_array_equal(mask, expected)

    def test_fault_free_map_gives_empty_mask(self):
        mask = gemm_fault_mask(GemmShape(10, 6), FaultMap.none(4, 4))
        assert not mask.any()

    def test_layer_mask_matches_weight_shape(self):
        conv = nn.Conv2d(3, 6, 3, rng=0)
        mask = layer_fault_mask(conv, FaultMap.random(8, 8, 0.3, seed=0))
        assert mask.shape == conv.weight.shape
        linear = nn.Linear(20, 10, rng=0)
        mask = layer_fault_mask(linear, FaultMap.random(8, 8, 0.3, seed=0))
        assert mask.shape == (10, 20)

    def test_column_permutation_changes_which_weights(self):
        fault_map = FaultMap.from_indices(4, 4, [(0, 0)])
        gemm = GemmShape(4, 4)
        base = gemm_fault_mask(gemm, fault_map)
        permuted = gemm_fault_mask(gemm, fault_map, column_permutation=[1, 0, 2, 3])
        assert base.sum() == permuted.sum() == 1
        assert not np.array_equal(base, permuted)

    def test_model_fault_masks_accepts_array_or_map(self):
        model = small_cnn()
        fault_map = FaultMap.random(8, 8, 0.25, seed=1)
        from_map = model_fault_masks(model, fault_map)
        from_array = model_fault_masks(model, SystolicArray(8, 8, fault_map=fault_map))
        assert set(from_map) == {"0", "4"}
        for name in from_map:
            np.testing.assert_array_equal(from_map[name], from_array[name])

    def test_masked_fraction_tracks_fault_rate_for_aligned_layers(self):
        # Layer dimensions that are exact multiples of the array tile size.
        model = MLP(64, 16, hidden_sizes=(32,), seed=0)
        fault_map = FaultMap.random(16, 16, 0.25, seed=0)
        masks = model_fault_masks(model, fault_map)
        fraction = masked_weight_fraction(masks)
        assert fraction == pytest.approx(0.25, abs=0.03)

    def test_masked_fraction_empty(self):
        assert masked_weight_fraction({}) == 0.0

    def test_expected_masked_fraction(self):
        assert expected_masked_fraction(0.3) == 0.3
        with pytest.raises(ValueError):
            expected_masked_fraction(1.5)


class TestModelMapping:
    def test_tiling_summary(self):
        model = MLP(100, 10, hidden_sizes=(70,), seed=0)
        mappings = model_mapping(model, SystolicArray(32, 32))
        assert len(mappings) == 2
        first = mappings[0]
        assert first.gemm.reduce_dim == 100
        assert first.row_tiles == 4 and first.col_tiles == 3
        assert first.num_tiles == 12
        assert first.last_tile_rows == 100 - 3 * 32
        assert first.last_tile_cols == 70 - 2 * 32

    def test_exact_tiling(self):
        model = MLP(64, 32, hidden_sizes=(), seed=0)
        mapping = model_mapping(model, SystolicArray(32, 32))[0]
        assert mapping.row_tiles == 2 and mapping.col_tiles == 1
        assert mapping.last_tile_rows == 32 and mapping.last_tile_cols == 32


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=32),
    cols=st.integers(min_value=2, max_value=32),
    rate=st.floats(min_value=0.0, max_value=1.0),
    reduce_mult=st.integers(min_value=1, max_value=4),
    out_mult=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mask_fraction_equals_fault_rate_for_aligned_gemm(rows, cols, rate, reduce_mult, out_mult, seed):
    """Property: when the GEMM tiles the array exactly, the masked-weight
    fraction equals the PE fault rate (each PE covers the same number of weights)."""
    fault_map = FaultMap.random(rows, cols, rate, seed=seed)
    gemm = GemmShape(reduce_dim=rows * reduce_mult, output_dim=cols * out_mult)
    mask = gemm_fault_mask(gemm, fault_map)
    assert mask.shape == (gemm.output_dim, gemm.reduce_dim)
    assert mask.mean() == pytest.approx(fault_map.fault_rate, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=16),
    cols=st.integers(min_value=2, max_value=16),
    rate=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_permutation_preserves_masked_count_property(rows, cols, rate, seed):
    """Property: a column permutation never changes how many weights are masked."""
    fault_map = FaultMap.random(rows, cols, rate, seed=seed)
    gemm = GemmShape(reduce_dim=rows * 2, output_dim=cols * 3)
    base = gemm_fault_mask(gemm, fault_map)
    permutation = np.random.default_rng(seed).permutation(cols)
    permuted = gemm_fault_mask(gemm, fault_map, column_permutation=permutation)
    assert base.sum() == permuted.sum()


class TestMaskCache:
    def test_cache_returns_identical_masks(self):
        from repro.accelerator import clear_mask_cache, mask_cache_stats

        clear_mask_cache()
        fault_map = FaultMap.random(8, 8, 0.3, seed=0)
        gemm = GemmShape(reduce_dim=24, output_dim=16)
        first = gemm_fault_mask(gemm, fault_map)
        second = gemm_fault_mask(gemm, fault_map)
        # Cache hit: the very same (read-only) array object is shared.
        assert second is first
        assert not first.flags.writeable
        stats = mask_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_cache_distinguishes_maps_shapes_and_permutations(self):
        from repro.accelerator import clear_mask_cache

        clear_mask_cache()
        map_a = FaultMap.random(8, 8, 0.3, seed=1)
        map_b = FaultMap.random(8, 8, 0.3, seed=2)
        gemm = GemmShape(reduce_dim=16, output_dim=16)
        other_gemm = GemmShape(reduce_dim=8, output_dim=16)
        permutation = np.roll(np.arange(8), 1)
        mask_a = gemm_fault_mask(gemm, map_a)
        mask_b = gemm_fault_mask(gemm, map_b)
        mask_other = gemm_fault_mask(other_gemm, map_a)
        mask_perm = gemm_fault_mask(gemm, map_a, column_permutation=permutation)
        assert mask_a.shape != mask_other.shape
        assert not np.array_equal(mask_a, mask_b)
        reference = gemm_fault_mask(
            gemm, map_a.permuted_columns(permutation)
        )
        np.testing.assert_array_equal(mask_perm, reference)

    def test_cached_mask_values_match_uncached(self):
        from repro.accelerator import clear_mask_cache

        fault_map = FaultMap.random(6, 10, 0.4, seed=3)
        gemm = GemmShape(reduce_dim=18, output_dim=20)
        clear_mask_cache()
        fresh = gemm_fault_mask(gemm, fault_map).copy()
        clear_mask_cache()
        again = gemm_fault_mask(gemm, fault_map)
        np.testing.assert_array_equal(fresh, again)

    def test_second_pass_over_a_fleet_hits_every_mask(self):
        """Over 512 masks (the size of a pass's triage + retraining reuse)
        stay cached: the second pass over 110 chips x 5 layers all hits."""
        from repro.accelerator import clear_mask_cache, mask_cache_stats

        clear_mask_cache()
        gemms = [GemmShape(reduce_dim=k, output_dim=n) for k, n in
                 [(25, 6), (150, 16), (400, 120), (120, 84), (84, 10)]]
        maps = [FaultMap.random(8, 8, 0.1, seed=chip) for chip in range(110)]
        for _ in range(2):
            for fault_map in maps:
                for gemm in gemms:
                    gemm_fault_mask(gemm, fault_map)
        stats = mask_cache_stats()
        assert stats["misses"] == len(maps) * len(gemms) > 512
        assert stats["hits"] == stats["misses"]
        assert stats["size"] == stats["misses"]
        clear_mask_cache()

    def test_byte_cap_evicts_least_recently_used(self, monkeypatch):
        from repro.accelerator import clear_mask_cache, mask_cache_stats
        from repro.accelerator import mapping

        clear_mask_cache()
        # 100-byte masks keyed by a 4x4 map bit-packed into 2 bytes.
        gemm = GemmShape(reduce_dim=10, output_dim=10)
        monkeypatch.setattr(mapping, "_MASK_CACHE_MAX_BYTES", 306)
        maps = [FaultMap.random(4, 4, 0.3, seed=seed) for seed in range(4)]
        first = [gemm_fault_mask(gemm, fault_map) for fault_map in maps[:3]]
        assert mask_cache_stats()["bytes"] == 306
        gemm_fault_mask(gemm, maps[0])  # refresh map 0: map 1 is now the LRU
        gemm_fault_mask(gemm, maps[3])  # over the cap: evicts map 1 only
        stats = mask_cache_stats()
        assert stats["size"] == 3 and stats["bytes"] == 306
        assert gemm_fault_mask(gemm, maps[0]) is first[0]
        assert gemm_fault_mask(gemm, maps[2]) is first[2]
        hits = mask_cache_stats()["hits"]
        assert gemm_fault_mask(gemm, maps[1]) is not first[1]  # rebuilt: a miss
        assert mask_cache_stats()["hits"] == hits
        clear_mask_cache()

    def test_byte_cap_counts_key_bytes(self, monkeypatch):
        """Each entry's key holds its own fault-map payload: three 100-byte
        masks fit a 300-byte cap only if their keys cost nothing."""
        from repro.accelerator import clear_mask_cache, mask_cache_stats
        from repro.accelerator import mapping

        clear_mask_cache()
        gemm = GemmShape(reduce_dim=10, output_dim=10)
        monkeypatch.setattr(mapping, "_MASK_CACHE_MAX_BYTES", 300)
        maps = [FaultMap.random(64, 64, 0.1, seed=seed) for seed in range(3)]
        for fault_map in maps:
            gemm_fault_mask(gemm, fault_map)
            assert mask_cache_stats()["bytes"] <= 300
        # A 64x64 map packs into 512 bytes: every entry costs 612 bytes, so
        # each insert evicts the one before it.
        stats = mask_cache_stats()
        assert stats["size"] == 0 and stats["bytes"] == 0
        monkeypatch.setattr(mapping, "_MASK_CACHE_MAX_BYTES", 2 * 612)
        for fault_map in maps:
            gemm_fault_mask(gemm, fault_map)
        stats = mask_cache_stats()
        assert stats["size"] == 2 and stats["bytes"] == 2 * 612
        clear_mask_cache()
