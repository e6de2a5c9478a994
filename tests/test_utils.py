"""Tests for utility helpers: RNG management, config serialization, timing, logging."""

import dataclasses
import logging

import numpy as np
import pytest

from repro.utils import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    derive_seed,
    format_duration,
    get_logger,
    load_json,
    new_rng,
    save_json,
    set_verbosity,
)


class TestRng:
    def test_new_rng_variants(self):
        assert isinstance(new_rng(None), np.random.Generator)
        seeded = new_rng(42)
        assert seeded.integers(0, 100) == new_rng(42).integers(0, 100)
        generator = np.random.default_rng(0)
        assert new_rng(generator) is generator

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(7, "x") < 2 ** 63


@dataclasses.dataclass
class InnerConfig:
    value: int = 3


@dataclasses.dataclass
class OuterConfig:
    name: str = "x"
    rate: float = 0.5
    inner: InnerConfig = dataclasses.field(default_factory=InnerConfig)
    values: tuple = (1, 2, 3)


class TestConfig:
    def test_round_trip(self):
        config = OuterConfig(name="test", rate=0.25, inner=InnerConfig(7), values=(4, 5))
        payload = config_to_dict(config)
        assert payload["inner"] == {"value": 7}
        restored = config_from_dict(OuterConfig, payload)
        assert restored.name == "test"
        assert restored.inner.value == 7

    def test_numpy_values_serializable(self):
        @dataclasses.dataclass
        class WithArray:
            data: np.ndarray = dataclasses.field(default_factory=lambda: np.arange(3))
            scalar: float = np.float64(1.5)

        payload = config_to_dict(WithArray())
        assert payload["data"] == [0, 1, 2]
        assert payload["scalar"] == 1.5

    def test_unknown_keys_ignored(self):
        restored = config_from_dict(OuterConfig, {"name": "y", "bogus": 1})
        assert restored.name == "y"

    def test_errors(self):
        with pytest.raises(ConfigError):
            config_to_dict({"not": "a dataclass"})
        with pytest.raises(ConfigError):
            config_from_dict(dict, {})

        @dataclasses.dataclass
        class Bad:
            thing: object = None

        with pytest.raises(ConfigError):
            config_to_dict(Bad(thing=object()))

    def test_save_and_load_json(self, tmp_path):
        path = save_json(OuterConfig(), tmp_path / "nested" / "config.json")
        loaded = load_json(path)
        assert loaded["name"] == "x"
        assert loaded["values"] == [1, 2, 3]


class TestTiming:
    def test_format_duration(self):
        assert format_duration(0.0000005).endswith("us")
        assert format_duration(0.5).endswith("ms")
        assert format_duration(5).endswith("s")
        assert "m" in format_duration(90)
        assert "h" in format_duration(7200)
        with pytest.raises(ValueError):
            format_duration(-1)

    def test_format_duration_unit_boundaries(self):
        # Values just under a unit boundary must carry into the next unit
        # instead of rendering an impossible component like "1m60.0s".
        assert format_duration(119.99) == "2m00.0s"
        assert format_duration(59.999) == "1m00.0s"
        assert format_duration(3599.99) == "1h00m"
        assert format_duration(0.99999) == "1.00s"
        assert format_duration(0.00099999) == "1.0ms"

    def test_format_duration_exact_values(self):
        assert format_duration(0.0) == "0us"
        assert format_duration(60.0) == "1m00.0s"
        assert format_duration(90.0) == "1m30.0s"
        assert format_duration(3599.94) == "59m59.9s"
        assert format_duration(3600.0) == "1h00m"
        assert format_duration(5400.0) == "1h30m"


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core.reduce").name == "repro.core.reduce"
        assert get_logger("repro.nn").name == "repro.nn"

    def test_set_verbosity(self):
        set_verbosity(2)
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(0)
        assert logging.getLogger("repro").level == logging.WARNING
