"""Figure-level experiment runners and presets (README "CLI" lists the commands)."""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".presets": (
        "DatasetSpec",
        "ModelSpec",
        "ExperimentPreset",
        "smoke_preset",
        "fast_preset",
        "paper_preset",
        "get_preset",
    ),
    ".common": (
        "ExperimentContext",
        "build_dataset",
        "preset_fingerprint",
        "resolve_disk_cache_dir",
    ),
    ".fig2": ("Fig2aResult", "Fig2bResult", "run_fig2a", "run_fig2b"),
    ".fig3": ("Fig3Result", "build_population", "run_fig3"),
    ".compare": ("CompareResult", "run_compare"),
})
