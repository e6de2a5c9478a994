"""Tests for ResilienceProfile lookups (pure data manipulation, no training)."""

import numpy as np
import pytest

from repro.core import ResilienceProfile


def make_profile():
    """A hand-crafted profile with known epochs-required behaviour.

    Grid: fault rates [0, 0.1, 0.2], 2 trials, checkpoints [0, 0.5, 1, 2].
    Accuracy rises with retraining and falls with fault rate; trial 1 is
    always slightly worse than trial 0 so min/mean/max differ.
    """
    fault_rates = np.array([0.0, 0.1, 0.2])
    checkpoints = np.array([0.0, 0.5, 1.0, 2.0])
    accuracies = np.zeros((3, 2, 4))
    # rate 0.0: always at clean accuracy.
    accuracies[0, :, :] = 0.95
    # rate 0.1: trial 0 recovers by 0.5 epochs, trial 1 by 1.0 epochs.
    accuracies[1, 0] = [0.80, 0.93, 0.94, 0.95]
    accuracies[1, 1] = [0.75, 0.88, 0.93, 0.95]
    # rate 0.2: trial 0 recovers at 1.0, trial 1 only at 2.0.
    accuracies[2, 0] = [0.60, 0.85, 0.93, 0.95]
    accuracies[2, 1] = [0.55, 0.80, 0.88, 0.93]
    return ResilienceProfile(
        fault_rates=fault_rates,
        epoch_checkpoints=checkpoints,
        accuracies=accuracies,
        clean_accuracy=0.95,
    )


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceProfile(
                fault_rates=np.array([0.2, 0.1]),
                epoch_checkpoints=np.array([0.0, 1.0]),
                accuracies=np.zeros((2, 1, 2)),
                clean_accuracy=0.9,
            )
        with pytest.raises(ValueError):
            ResilienceProfile(
                fault_rates=np.array([0.1]),
                epoch_checkpoints=np.array([0.0, 1.0]),
                accuracies=np.zeros((1, 2)),
                clean_accuracy=0.9,
            )
        with pytest.raises(ValueError):
            ResilienceProfile(
                fault_rates=np.array([0.1]),
                epoch_checkpoints=np.array([0.0]),
                accuracies=np.zeros((1, 1, 1)),
                clean_accuracy=1.5,
            )

    def test_basic_properties(self):
        profile = make_profile()
        assert profile.num_trials == 2
        assert profile.max_epochs == 2.0
        assert "ResilienceProfile" in repr(profile)


class TestAccuracyViews:
    def test_accuracy_vs_fault_rate(self):
        profile = make_profile()
        no_retraining = profile.accuracy_vs_fault_rate(0.0, "mean")
        np.testing.assert_allclose(no_retraining, [0.95, 0.775, 0.575])
        full = profile.accuracy_vs_fault_rate(2.0, "min")
        np.testing.assert_allclose(full, [0.95, 0.95, 0.93])

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            make_profile().accuracy_vs_fault_rate(0.0, statistic="mode")


class TestEpochsRequired:
    def test_per_trial_requirements(self):
        profile = make_profile()
        assert profile.epochs_required_trials(1, 0.93) == [0.5, 1.0]
        assert profile.epochs_required_trials(2, 0.93) == [1.0, 2.0]

    def test_unreachable_target(self):
        profile = make_profile()
        assert profile.epochs_required_trials(2, 0.99) == [None, None]
        assert profile.epochs_required_at_grid_rate(2, 0.99, unreachable="none") is None
        assert profile.epochs_required_at_grid_rate(2, 0.99, unreachable="max_epochs") == 2.0
        with pytest.raises(ValueError):
            profile.epochs_required_at_grid_rate(2, 0.99, unreachable="explode")

    def test_statistics(self):
        profile = make_profile()
        assert profile.epochs_required_at_grid_rate(1, 0.93, statistic="max") == 1.0
        assert profile.epochs_required_at_grid_rate(1, 0.93, statistic="min") == 0.5
        assert profile.epochs_required_at_grid_rate(1, 0.93, statistic="mean") == 0.75

    def test_curve(self):
        profile = make_profile()
        assert profile.epochs_required_curve(0.93, statistic="max") == [0.0, 1.0, 2.0]

    def test_off_grid_interpolation_modes(self):
        profile = make_profile()
        ceil = profile.epochs_required(0.15, 0.93, statistic="max", interpolation="ceil")
        floor = profile.epochs_required(0.15, 0.93, statistic="max", interpolation="floor")
        linear = profile.epochs_required(0.15, 0.93, statistic="max", interpolation="linear")
        assert ceil == 2.0 and floor == 1.0
        assert linear == pytest.approx(1.5)

    def test_off_grid_clamping(self):
        profile = make_profile()
        assert profile.epochs_required(0.0, 0.93) == 0.0
        assert profile.epochs_required(0.9, 0.93) == 2.0  # beyond the grid: use last rate

    def test_requirement_monotone_in_target(self):
        profile = make_profile()
        easy = profile.epochs_required(0.2, 0.80, statistic="max")
        hard = profile.epochs_required(0.2, 0.93, statistic="max")
        assert hard >= easy

    def test_validation(self):
        profile = make_profile()
        with pytest.raises(ValueError):
            profile.epochs_required(1.5, 0.9)
        with pytest.raises(ValueError):
            profile.epochs_required(0.1, 0.9, interpolation="spline")
        with pytest.raises(IndexError):
            profile.epochs_required_trials(9, 0.9)


class TestSerialization:
    def test_round_trip(self):
        profile = make_profile()
        profile.metadata["note"] = "test"
        restored = ResilienceProfile.from_dict(profile.to_dict())
        np.testing.assert_allclose(restored.accuracies, profile.accuracies)
        np.testing.assert_allclose(restored.fault_rates, profile.fault_rates)
        assert restored.clean_accuracy == profile.clean_accuracy
        assert restored.metadata["note"] == "test"

    def test_round_trip_through_json(self, tmp_path):
        import json

        profile = make_profile()
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile.to_dict()))
        restored = ResilienceProfile.from_dict(json.loads(path.read_text()))
        assert restored.max_epochs == profile.max_epochs
