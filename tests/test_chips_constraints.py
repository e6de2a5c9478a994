"""Tests for Chip / ChipPopulation and accuracy constraints."""

import numpy as np
import pytest

from repro.accelerator import ColumnFaultModel, FaultMap
from repro.core import AccuracyConstraint, Chip, ChipPopulation
from repro.training import meets_target


class TestChip:
    def test_properties(self):
        fault_map = FaultMap.random(16, 16, 0.2, seed=0)
        chip = Chip("chip-001", fault_map)
        assert chip.fault_rate == pytest.approx(fault_map.fault_rate)
        array = chip.array()
        assert array.shape == (16, 16)
        assert array.fault_map == fault_map

    def test_serialization(self):
        chip = Chip("c1", FaultMap.random(8, 8, 0.3, seed=1))
        restored = Chip.from_dict(chip.to_dict())
        assert restored.chip_id == "c1"
        assert restored.fault_map == chip.fault_map


class TestChipPopulation:
    def test_generate_range(self):
        population = ChipPopulation.generate(10, 16, 16, fault_rates=(0.05, 0.3), seed=0)
        assert len(population) == 10
        rates = population.fault_rates()
        assert np.all(rates >= 0.0) and np.all(rates <= 0.31)
        assert population.array_shape == (16, 16)
        assert len({chip.chip_id for chip in population}) == 10

    def test_generate_fixed_rate(self):
        population = ChipPopulation.generate(5, 16, 16, fault_rates=0.25, seed=0)
        np.testing.assert_allclose(population.fault_rates(), np.full(5, 0.25), atol=0.01)

    def test_generate_explicit_rates(self):
        rates = [0.0, 0.1, 0.2]
        population = ChipPopulation.generate(3, 8, 8, fault_rates=rates, seed=0)
        np.testing.assert_allclose(population.fault_rates(), rates, atol=0.02)

    def test_generate_with_custom_fault_model(self):
        population = ChipPopulation.generate(
            4, 8, 8, fault_rates=0.25, fault_model=ColumnFaultModel(), seed=0
        )
        for chip in population:
            assert len(chip.fault_map.columns_with_faults()) == 2

    def test_generation_is_deterministic(self):
        a = ChipPopulation.generate(6, 8, 8, seed=3)
        b = ChipPopulation.generate(6, 8, 8, seed=3)
        assert all(x.fault_map == y.fault_map for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChipPopulation.generate(0, 8, 8)
        with pytest.raises(ValueError):
            ChipPopulation.generate(3, 8, 8, fault_rates=(0.5, 0.2))
        with pytest.raises(ValueError):
            ChipPopulation.generate(3, 8, 8, fault_rates=[0.1, 0.2])  # wrong length
        with pytest.raises(ValueError):
            ChipPopulation([])

    def test_duplicate_ids_rejected(self):
        chip = Chip("dup", FaultMap.none(4, 4))
        with pytest.raises(ValueError):
            ChipPopulation([chip, Chip("dup", FaultMap.none(4, 4))])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError):
            ChipPopulation([Chip("a", FaultMap.none(4, 4)), Chip("b", FaultMap.none(8, 8))])

    def test_container_protocol_and_summary(self):
        population = ChipPopulation.generate(5, 8, 8, seed=0)
        assert population[0].chip_id.startswith("chip-")
        assert len(list(iter(population))) == 5
        summary = population.fault_rate_summary()
        assert set(summary) == {"min", "max", "mean", "median"}
        assert "ChipPopulation" in repr(population)

    def test_serialization_round_trip(self):
        population = ChipPopulation.generate(4, 8, 8, seed=1)
        restored = ChipPopulation.from_dict(population.to_dict())
        assert len(restored) == 4
        assert all(x.fault_map == y.fault_map for x, y in zip(population, restored))


class TestAccuracyConstraint:
    def test_absolute(self):
        constraint = AccuracyConstraint(absolute=0.91)
        assert constraint.resolve() == pytest.approx(0.91)
        assert meets_target(0.915, constraint.resolve())
        assert not meets_target(0.90, constraint.resolve())
        assert "91" in constraint.describe()

    def test_relative(self):
        constraint = AccuracyConstraint.within_drop_of_clean(0.02)
        assert constraint.resolve(clean_accuracy=0.95) == pytest.approx(0.93)
        assert meets_target(0.935, constraint.resolve(clean_accuracy=0.95))
        assert not meets_target(0.92, constraint.resolve(clean_accuracy=0.95))
        with pytest.raises(ValueError):
            constraint.resolve()

    def test_relative_never_negative(self):
        constraint = AccuracyConstraint.within_drop_of_clean(0.5)
        assert constraint.resolve(clean_accuracy=0.3) == 0.0

    def test_describe_variants(self):
        relative = AccuracyConstraint.within_drop_of_clean(0.02)
        assert "clean" in relative.describe()
        assert "%" in relative.describe(clean_accuracy=0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            AccuracyConstraint()
        with pytest.raises(ValueError):
            AccuracyConstraint(absolute=0.9, relative_drop=0.1)
        with pytest.raises(ValueError):
            AccuracyConstraint(absolute=1.5)
        with pytest.raises(ValueError):
            AccuracyConstraint(relative_drop=-0.1)

    def test_serialization(self):
        constraint = AccuracyConstraint(absolute=0.9)
        restored = AccuracyConstraint.from_dict(constraint.to_dict())
        assert restored == constraint
