"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_class_template_images
from repro.experiments import ExperimentContext, smoke_preset
from repro.models import MLP
from tests.helpers import make_blob_classification
from tests.helpers import numeric_gradient  # noqa: F401  (re-exported for fixtures/tests)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def blob_bundle():
    """Tiny Gaussian-blob classification problem (fast MLP workloads)."""
    return make_blob_classification(
        num_classes=3, features=8, train_per_class=30, test_per_class=15, cluster_std=0.8, seed=0
    )


@pytest.fixture(scope="session")
def image_bundle():
    """Tiny synthetic image-classification problem."""
    return make_class_template_images(
        num_classes=4,
        train_per_class=16,
        test_per_class=8,
        image_size=8,
        channels=2,
        noise_std=0.3,
        shift_pixels=0,
        seed=1,
    )


@pytest.fixture
def small_mlp(image_bundle):
    features = int(np.prod(image_bundle.input_shape))
    return MLP(features, image_bundle.num_classes, hidden_sizes=(32,), seed=3)


@pytest.fixture(scope="session")
def smoke_context():
    """Pre-trained experiment context at smoke scale (shared across tests)."""
    return ExperimentContext.from_preset(smoke_preset())
