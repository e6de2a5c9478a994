"""Tests for reporting tables, Pareto analysis, statistics and ASCII plots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bootstrap_mean_interval,
    histogram,
    line_plot,
    mean_confidence_interval,
    pareto_mask,
    relative_change,
    scatter_plot,
    summarize,
)
from repro.core.reduce import CampaignResult
from repro.core.results import ChipRetrainingResult
from repro.core.reporting import (
    campaign_scatter_csv,
    campaign_summary_table,
    format_table,
)
from tests.helpers import dominates


def make_campaign(name="policy-a", epochs=(0.1, 0.2), accuracies=(0.9, 0.95), target=0.92):
    results = [
        ChipRetrainingResult(
            chip_id=f"chip-{i}",
            fault_rate=0.1 * (i + 1),
            epochs_allocated=e,
            epochs_trained=e,
            accuracy_before=a - 0.1,
            accuracy_after=a,
            meets_constraint=a >= target,
            masked_weight_fraction=0.1,
        )
        for i, (e, a) in enumerate(zip(epochs, accuracies))
    ]
    return CampaignResult(policy_name=name, target_accuracy=target, clean_accuracy=0.97, results=results)


class TestReporting:
    def test_format_table(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_campaign_summary_table(self):
        table = campaign_summary_table([make_campaign("a"), make_campaign("b", epochs=(0.3, 0.3))])
        assert "a" in table and "b" in table
        assert "avg epochs/chip" in table
        with pytest.raises(ValueError):
            campaign_summary_table([])

    def test_scatter_csv(self):
        csv_text = campaign_scatter_csv(make_campaign())
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("chip_id,")
        assert len(lines) == 3

    def test_chip_result_recovery(self):
        result = make_campaign().results[0]
        assert result.accuracy_recovered == pytest.approx(0.1)


class TestPareto:
    def test_mask_simple(self):
        costs = [1.0, 2.0, 3.0]
        qualities = [50.0, 80.0, 70.0]
        mask = pareto_mask(costs, qualities)
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_mask_with_duplicates(self):
        mask = pareto_mask([1.0, 1.0], [5.0, 5.0])
        assert mask.sum() >= 1

    def test_dominates(self):
        assert dominates(1.0, 90.0, 2.0, 80.0)
        assert not dominates(2.0, 80.0, 1.0, 90.0)
        assert not dominates(1.0, 90.0, 1.0, 90.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pareto_mask([1.0, 2.0], [1.0])


class TestStatistics:
    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)
        assert stats.count == 4
        assert set(stats.as_dict()) == {"count", "mean", "std", "min", "median", "max"}
        with pytest.raises(ValueError):
            summarize([])

    def test_single_value_summary(self):
        assert summarize([5.0]).std == 0.0

    def test_confidence_interval_contains_mean(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert low <= mean <= high
        assert mean == pytest.approx(3.0)
        with pytest.raises(ValueError):
            mean_confidence_interval([], confidence=0.95)
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], confidence=1.5)

    def test_confidence_interval_single_sample(self):
        mean, low, high = mean_confidence_interval([2.0])
        assert mean == low == high == 2.0

    def test_bootstrap_interval(self):
        mean, low, high = bootstrap_mean_interval(list(range(20)), seed=0)
        assert low <= mean <= high
        with pytest.raises(ValueError):
            bootstrap_mean_interval([])

    def test_relative_change(self):
        assert relative_change(2.0, 3.0) == pytest.approx(0.5)
        assert relative_change(0.0, 3.0) == 0.0


class TestAsciiPlots:
    def test_line_plot_contains_series_markers(self):
        text = line_plot([0, 1, 2], {"a": [1, 2, 3], "b": [3, 2, 1]}, title="demo")
        assert "demo" in text
        assert "legend" in text
        assert "o" in text and "x" in text

    def test_line_plot_validation(self):
        with pytest.raises(ValueError):
            line_plot([], {})
        with pytest.raises(ValueError):
            line_plot([0, 1], {"a": [1.0]})

    def test_line_plot_constant_series(self):
        text = line_plot([0, 1], {"flat": [1.0, 1.0]})
        assert "flat" in text

    def test_scatter_plot(self):
        text = scatter_plot({"points": ([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])}, title="sc")
        assert "sc" in text and "legend" in text
        with pytest.raises(ValueError):
            scatter_plot({})

    def test_histogram(self):
        text = histogram([1, 1, 2, 3, 3, 3], bins=3, title="h")
        assert "h" in text
        assert "#" in text
        with pytest.raises(ValueError):
            histogram([])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_pareto_front_members_are_not_dominated(points):
    """Property: no Pareto-front member is dominated by any other point."""
    costs = [p[0] for p in points]
    qualities = [p[1] for p in points]
    mask = pareto_mask(costs, qualities)
    assert mask.any()  # at least one point always survives
    for index, keep in enumerate(mask):
        if keep:
            assert not any(
                dominates(costs[j], qualities[j], costs[index], qualities[index])
                for j in range(len(points))
            )
