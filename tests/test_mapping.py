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


class TestModelMapping:
    def test_tiling_summary(self):
        model = MLP(100, 10, hidden_sizes=(70,), seed=0)
        mappings = model_mapping(model, SystolicArray(32, 32))
        assert len(mappings) == 2
        first = mappings[0]
        assert first.gemm.reduce_dim == 100
        assert first.row_tiles == 4 and first.col_tiles == 3
        assert first.num_tiles == 12

    def test_exact_tiling(self):
        model = MLP(64, 32, hidden_sizes=(), seed=0)
        mapping = model_mapping(model, SystolicArray(32, 32))[0]
        assert mapping.row_tiles == 2 and mapping.col_tiles == 1


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
    """Masks are built on every call: equal values, no shared state."""

    def test_cache_distinguishes_maps_shapes_and_permutations(self):
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
        fault_map = FaultMap.random(6, 10, 0.4, seed=3)
        gemm = GemmShape(reduce_dim=18, output_dim=20)
        fresh = gemm_fault_mask(gemm, fault_map).copy()
        again = gemm_fault_mask(gemm, fault_map)
        np.testing.assert_array_equal(fresh, again)

    def test_returned_masks_are_read_only(self):
        fault_map = FaultMap.random(8, 8, 0.3, seed=4)
        masks = [
            gemm_fault_mask(GemmShape(reduce_dim=24, output_dim=16), fault_map),
            gemm_fault_mask(GemmShape(reduce_dim=8, output_dim=1), fault_map),
            *model_fault_masks(small_cnn(), fault_map).values(),
        ]
        for mask in masks:
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[(0,) * mask.ndim] = True

    def test_dropped_mask_is_not_retained(self):
        """Nothing outlives the caller's reference to a mask."""
        import weakref

        fault_map = FaultMap.random(8, 8, 0.3, seed=5)
        mask = gemm_fault_mask(GemmShape(reduce_dim=24, output_dim=16), fault_map)
        ref = weakref.ref(mask)
        del mask
        assert ref() is None


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    reduce_dim=st.integers(min_value=1, max_value=40),
    output_dim=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mask_is_the_weight_stationary_tiling(rows, cols, reduce_dim, output_dim, seed):
    """Property: weight (n, k) is masked iff PE (k mod R, n mod C) is faulty,
    for ragged as well as whole tilings."""
    fault_map = FaultMap.random(rows, cols, 0.4, seed=seed)
    mask = gemm_fault_mask(GemmShape(reduce_dim, output_dim), fault_map)
    n, k = np.indices((output_dim, reduce_dim))
    np.testing.assert_array_equal(mask, fault_map.array[k % rows, n % cols])
    assert mask.flags.c_contiguous
