"""Utility helpers shared across the :mod:`repro` package.

The utilities are deliberately small and dependency free: deterministic RNG
management, lightweight logging, duration formatting and config serialization.
"""

from repro.utils.rng import new_rng, derive_seed
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.timing import format_duration
from repro.utils.config import ConfigError, config_to_dict, config_from_dict, save_json, load_json

__all__ = [
    "new_rng",
    "derive_seed",
    "get_logger",
    "set_verbosity",
    "format_duration",
    "ConfigError",
    "config_to_dict",
    "config_from_dict",
    "save_json",
    "load_json",
]
