"""Tests for datasets, loaders and synthetic data generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DataLoader, TensorDataset, make_class_template_images

from tests.helpers import make_blob_classification


class TestTensorDataset:
    def test_length_and_indexing(self):
        ds = TensorDataset(np.arange(20).reshape(10, 2), np.arange(10))
        assert len(ds) == 10
        inputs, targets = ds.arrays()
        x, y = inputs[3], targets[3]
        assert np.array_equal(x, [6, 7]) and y == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((3, 2)), np.zeros(4))

    def test_num_classes(self):
        ds = TensorDataset(np.zeros((6, 2)), np.array([0, 1, 2, 2, 1, 0]))
        assert ds.num_classes == 3


class TestDataLoader:
    def _dataset(self, n=23):
        return TensorDataset(np.arange(n * 2, dtype=np.float32).reshape(n, 2), np.arange(n) % 3)

    def test_batch_shapes_and_count(self):
        loader = DataLoader(self._dataset(), batch_size=5)
        batches = list(loader)
        assert len(loader) == 5
        assert len(batches) == 5
        assert batches[0][0].shape == (5, 2)
        assert batches[-1][0].shape == (3, 2)

    def test_shuffle_changes_order_but_not_content(self):
        loader = DataLoader(self._dataset(), batch_size=23, shuffle=True, seed=0)
        (x1, y1), = list(loader)
        (x2, y2), = list(loader)
        assert not np.array_equal(y1, y2) or not np.array_equal(x1.data, x2.data)
        assert sorted(y1.tolist()) == sorted(y2.tolist())

    def test_no_shuffle_is_deterministic(self):
        loader = DataLoader(self._dataset(), batch_size=4, shuffle=False)
        first = np.concatenate([y for _, y in loader])
        second = np.concatenate([y for _, y in loader])
        np.testing.assert_array_equal(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._dataset(), batch_size=0)

    def test_inputs_are_float32_tensors(self):
        x, _ = next(iter(DataLoader(self._dataset(), batch_size=3)))
        assert x.dtype == np.float32


class TestSyntheticData:
    def test_class_template_images_shapes(self):
        bundle = make_class_template_images(
            num_classes=5, train_per_class=6, test_per_class=3, image_size=10, channels=3, seed=0
        )
        assert len(bundle.train) == 30 and len(bundle.test) == 15
        assert bundle.input_shape == (3, 10, 10)
        assert bundle.num_classes == 5
        x, y = bundle.train.inputs[0], bundle.train.targets[0]
        assert x.shape == (3, 10, 10) and 0 <= y < 5
        assert bundle.image_size == 10
        assert "train" in bundle.summary()

    def test_deterministic_given_seed(self):
        a = make_class_template_images(num_classes=3, train_per_class=4, test_per_class=2, image_size=8, seed=5)
        b = make_class_template_images(num_classes=3, train_per_class=4, test_per_class=2, image_size=8, seed=5)
        np.testing.assert_allclose(a.train.inputs, b.train.inputs)
        np.testing.assert_array_equal(a.train.targets, b.train.targets)

    def test_different_seeds_differ(self):
        a = make_class_template_images(num_classes=3, train_per_class=4, test_per_class=2, image_size=8, seed=1)
        b = make_class_template_images(num_classes=3, train_per_class=4, test_per_class=2, image_size=8, seed=2)
        assert not np.allclose(a.train.inputs, b.train.inputs)

    def test_all_classes_present(self):
        bundle = make_class_template_images(num_classes=6, train_per_class=3, test_per_class=2, image_size=8, seed=0)
        assert set(np.unique(bundle.train.targets)) == set(range(6))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            make_class_template_images(num_classes=1)
        with pytest.raises(ValueError):
            make_class_template_images(noise_std=-1.0)
        with pytest.raises(ValueError):
            make_class_template_images(image_size=2, template_grid=4)

    def test_blob_classification(self):
        bundle = make_blob_classification(num_classes=3, features=5, train_per_class=10, test_per_class=4, seed=0)
        assert bundle.input_shape == (5,)
        assert len(bundle.train) == 30
        with pytest.raises(ValueError):
            make_blob_classification(num_classes=1)


@settings(max_examples=15, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=1, max_value=40),
)
def test_dataloader_covers_every_sample_property(batch_size, n):
    """Property: iterating a loader yields every sample exactly once."""
    ds = TensorDataset(np.arange(n, dtype=np.float32).reshape(n, 1), np.arange(n))
    loader = DataLoader(ds, batch_size=batch_size, shuffle=True, seed=0)
    seen = np.concatenate([y for _, y in loader])
    assert sorted(seen.tolist()) == list(range(n))
