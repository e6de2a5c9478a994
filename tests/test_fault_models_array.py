"""Tests for fault models and the SystolicArray container."""

import numpy as np
import pytest

from repro.accelerator import (
    ArrayTechnology,
    ClusteredFaultModel,
    ColumnFaultModel,
    FaultMap,
    RandomFaultModel,
    SystolicArray,
)


class TestFaultModels:
    def test_random_model_exact(self):
        model = RandomFaultModel()
        fm = model.sample(32, 32, 0.2, np.random.default_rng(0))
        assert fm.num_faulty == round(0.2 * 1024)

    def test_clustered_model(self):
        fm = ClusteredFaultModel(cluster_size=4).sample(32, 32, 0.15, np.random.default_rng(1))
        assert fm.num_faulty == round(0.15 * 1024)

    def test_column_model(self):
        col_map = ColumnFaultModel().sample(10, 6, 0.5, np.random.default_rng(0))
        assert col_map.num_faulty == 3 * 10


class TestArrayTechnology:
    def test_defaults_valid(self):
        tech = ArrayTechnology()
        assert tech.frequency_mhz > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayTechnology(frequency_mhz=0)
        with pytest.raises(ValueError):
            ArrayTechnology(mac_energy_pj=-1)


class TestSystolicArray:
    def test_defaults_to_fault_free_256(self):
        array = SystolicArray()
        assert array.shape == (256, 256)
        assert array.num_faulty_pes == 0
        assert array.fault_map.num_pes == 256 * 256

    def test_with_fault_map(self):
        fm = FaultMap.random(8, 8, 0.25, seed=0)
        array = SystolicArray(8, 8, fault_map=fm)
        assert array.num_faulty_pes == fm.num_faulty
        assert array.fault_rate == pytest.approx(fm.fault_rate)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            SystolicArray(8, 8, fault_map=FaultMap.none(4, 4))
        with pytest.raises(ValueError):
            SystolicArray(0, 8)

    def test_serialization_round_trip(self):
        fm = FaultMap.random(4, 6, 0.3, seed=2)
        array = SystolicArray(4, 6, fault_map=fm)
        restored = SystolicArray.from_dict(array.to_dict())
        assert restored.shape == (4, 6)
        assert restored.fault_map == fm

    def test_serialization_round_trips_technology(self):
        from repro.accelerator import ArrayTechnology

        technology = ArrayTechnology(
            frequency_mhz=1200.0,
            mac_energy_pj=0.4,
            sram_access_energy_pj=3.5,
            dram_access_energy_pj=120.0,
            bytes_per_weight=2,
            bytes_per_activation=2,
        )
        array = SystolicArray(4, 6, technology=technology)
        restored = SystolicArray.from_dict(array.to_dict())
        assert restored.technology == technology

    def test_from_dict_without_technology_uses_defaults(self):
        from repro.accelerator import ArrayTechnology

        restored = SystolicArray.from_dict({"rows": 4, "cols": 6})
        assert restored.technology == ArrayTechnology()

    def test_repr(self):
        assert "SystolicArray" in repr(SystolicArray(4, 4))
