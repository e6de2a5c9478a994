"""Tests for FaultMap construction, statistics and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import FaultMap


class TestConstruction:
    def test_none_is_fault_free(self):
        fm = FaultMap.none(8, 16)
        assert fm.shape == (8, 16)
        assert fm.num_faulty == 0
        assert fm.fault_rate == 0.0

    def test_from_array_and_indices(self):
        fm_array = FaultMap(np.array([[True, False], [False, True]]))
        fm_indices = FaultMap.from_indices(2, 2, [(0, 0), (1, 1)])
        assert fm_array == fm_indices
        assert fm_array.num_faulty == 2

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            FaultMap.from_indices(2, 2, [(5, 0)])

    def test_requires_2d_nonempty(self):
        with pytest.raises(ValueError):
            FaultMap(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            FaultMap(np.zeros((0, 3), dtype=bool))

    def test_random_exact_count(self):
        fm = FaultMap.random(32, 32, 0.13, seed=0)
        assert fm.num_faulty == round(0.13 * 32 * 32)
        assert fm.fault_rate == pytest.approx(0.13, abs=1e-3)

    def test_random_bernoulli_mode(self):
        fm = FaultMap.random(64, 64, 0.2, seed=0, exact=False)
        assert 0.1 < fm.fault_rate < 0.3

    def test_random_extremes(self):
        assert FaultMap.random(8, 8, 0.0, seed=0).num_faulty == 0
        assert FaultMap.random(8, 8, 1.0, seed=0).num_faulty == 64

    def test_random_invalid_rate(self):
        with pytest.raises(ValueError):
            FaultMap.random(4, 4, 1.5)
        with pytest.raises(ValueError):
            FaultMap.random(0, 4, 0.5)

    def test_random_determinism(self):
        a = FaultMap.random(16, 16, 0.2, seed=42)
        b = FaultMap.random(16, 16, 0.2, seed=42)
        c = FaultMap.random(16, 16, 0.2, seed=43)
        assert a == b
        assert a != c

    def test_clustered_reaches_target_count(self):
        fm = FaultMap.clustered(32, 32, 0.1, cluster_size=9, seed=0)
        assert fm.num_faulty == round(0.1 * 1024)

    def test_faulty_rows_and_columns(self):
        rows = FaultMap.from_indices(4, 6, [(row, col) for row in (1, 3) for col in range(6)])
        assert rows.num_faulty == 12
        assert set(rows.rows_with_faults().tolist()) == {1, 3}
        cols = FaultMap.faulty_columns(4, 6, [0])
        assert cols.num_faulty == 4
        assert set(cols.columns_with_faults().tolist()) == {0}


class TestStatisticsAndViews:
    def test_counts(self):
        fm = FaultMap.from_indices(3, 3, [(0, 0), (0, 1), (2, 1)])
        np.testing.assert_array_equal(fm.row_fault_counts(), [2, 0, 1])
        np.testing.assert_array_equal(fm.column_fault_counts(), [1, 2, 0])
        assert fm.faulty_indices().shape == (3, 2)

    def test_array_is_read_only(self):
        fm = FaultMap.none(4, 4)
        with pytest.raises(ValueError):
            fm.array[0, 0] = True

    def test_permuted_columns(self):
        fm = FaultMap.from_indices(2, 3, [(0, 0)])
        permuted = fm.permuted_columns([2, 0, 1])
        # Logical column 0 now reads physical column 2 (fault stays at its column).
        assert permuted.array[0, 1]
        assert not permuted.array[0, 0]
        with pytest.raises(ValueError):
            fm.permuted_columns([0, 0, 1])

    def test_equality_and_hash(self):
        a = FaultMap.from_indices(2, 2, [(0, 1)])
        b = FaultMap.from_indices(2, 2, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != "not a fault map"

    def test_repr(self):
        assert "FaultMap" in repr(FaultMap.none(4, 4))


class TestSerialization:
    def test_round_trip(self):
        fm = FaultMap.random(16, 8, 0.25, seed=3)
        restored = FaultMap.from_dict(fm.to_dict())
        assert restored == fm

    def test_json_matches_per_pe_encoding(self):
        """Store fingerprints hash this JSON, so it must not change shape."""
        fm = FaultMap.random(16, 8, 0.25, seed=3)
        per_pe = [[int(r), int(c)] for r, c in np.argwhere(fm.array)]
        expected = json.dumps({"rows": 16, "cols": 8, "faulty_indices": per_pe})
        assert json.dumps(fm.to_dict()) == expected
        assert FaultMap.none(4, 4).to_dict()["faulty_indices"] == []

    def test_empty_and_array_indices(self):
        assert FaultMap.from_dict({"rows": 3, "cols": 2, "faulty_indices": []}) == FaultMap.none(3, 2)
        fm = FaultMap.random(9, 7, 0.3, seed=1)
        assert FaultMap.from_indices(9, 7, fm.faulty_indices()) == fm
        assert FaultMap.from_indices(9, 7, (tuple(p) for p in fm.faulty_indices().tolist())) == fm

    def test_out_of_range_reports_first_bad_pair(self):
        data = {"rows": 4, "cols": 3, "faulty_indices": [[0, 0], [1, 3], [-1, 0], [9, 9]]}
        with pytest.raises(IndexError, match=r"^PE coordinate \(1, 3\) outside a 4x3 array$"):
            FaultMap.from_dict(data)
        with pytest.raises(IndexError, match=r"^PE coordinate \(-1, 0\) outside a 4x3 array$"):
            FaultMap.from_indices(4, 3, [(-1, 0), (0, 5)])

    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([[0, 1.5]], IndexError),
            ([[1.0, 0]], IndexError),
            ([[0, "1"]], TypeError),
            ([[None, 0]], TypeError),
            ([[0, 0], [5, 0], [0.5, 0]], IndexError),
        ],
    )
    def test_non_integer_coordinates_rejected(self, pairs, error):
        with pytest.raises(error):
            FaultMap.from_dict({"rows": 4, "cols": 4, "faulty_indices": pairs})

    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([[0, 1, 2]], ValueError),
            ([[0]], ValueError),
            ([[0, 1], [2]], ValueError),
            ([[]], ValueError),
            ([1, 2], TypeError),
            ([[0, 1], 3], TypeError),
            ([[[0, 1], [1, 0]]], TypeError),
            (5, TypeError),
        ],
    )
    def test_entries_that_are_not_pairs_rejected(self, pairs, error):
        with pytest.raises(error):
            FaultMap.from_dict({"rows": 4, "cols": 4, "faulty_indices": pairs})


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=64),
    cols=st.integers(min_value=1, max_value=64),
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_fault_map_invariants(rows, cols, rate, seed):
    """Property: exact sampling produces round(rate*PEs) faults within bounds."""
    fm = FaultMap.random(rows, cols, rate, seed=seed)
    assert fm.shape == (rows, cols)
    assert fm.num_faulty == round(rate * rows * cols)
    assert 0.0 <= fm.fault_rate <= 1.0
    assert fm.num_faulty == fm.array.sum()


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=16),
    cols=st.integers(min_value=2, max_value=16),
    rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_column_permutation_preserves_fault_count(rows, cols, rate, seed):
    """Property: permuting columns never changes the number of faults."""
    fm = FaultMap.random(rows, cols, rate, seed=seed)
    permutation = np.random.default_rng(seed).permutation(cols)
    assert fm.permuted_columns(permutation).num_faulty == fm.num_faulty
