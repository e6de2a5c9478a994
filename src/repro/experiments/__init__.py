"""Figure-level experiment runners and presets (see DESIGN.md §4)."""

from repro.experiments.presets import (
    DatasetSpec,
    ModelSpec,
    ExperimentPreset,
    smoke_preset,
    fast_preset,
    paper_preset,
    get_preset,
    available_presets,
)
from repro.experiments.common import (
    ExperimentContext,
    build_dataset,
    clear_context_cache,
    preset_fingerprint,
    resolve_disk_cache_dir,
)
from repro.experiments.fig2 import Fig2aResult, Fig2bResult, run_fig2a, run_fig2b
from repro.experiments.fig3 import Fig3Result, build_population, run_fig3
from repro.experiments.compare import CompareResult, run_compare

__all__ = [
    "DatasetSpec",
    "ModelSpec",
    "ExperimentPreset",
    "smoke_preset",
    "fast_preset",
    "paper_preset",
    "get_preset",
    "available_presets",
    "ExperimentContext",
    "build_dataset",
    "clear_context_cache",
    "preset_fingerprint",
    "resolve_disk_cache_dir",
    "Fig2aResult",
    "Fig2bResult",
    "run_fig2a",
    "run_fig2b",
    "Fig3Result",
    "build_population",
    "run_fig3",
    "CompareResult",
    "run_compare",
]
