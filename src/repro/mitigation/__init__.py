"""Permanent-fault mitigation techniques: FAP, FAM and FAT.

These are the baselines / building blocks the Reduce framework orchestrates:

* :mod:`repro.mitigation.fap` — Fault-Aware Pruning (zero weights mapped onto
  faulty PEs),
* :mod:`repro.mitigation.fam` — Fault-Aware Mapping (SalvageDNN-style
  saliency-driven column permutation before pruning),
* :mod:`repro.mitigation.fat` — Fault-Aware Training (retraining with masks
  enforced), whose cost Reduce minimises,
* :mod:`repro.mitigation.strategy` — mitigation *strategies* (``fat``,
  ``fap``, ``fam+fat``, ``bypass+fat``, ...) as a first-class, sweepable
  campaign axis combining the techniques above with PE bypass.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".strategy": (
        "DEFAULT_STRATEGY_NAME",
        "MitigationStrategy",
        "available_strategies",
        "parse_strategy",
        "parse_strategy_list",
        "resolve_strategy",
    ),
    ".saliency": (
        "magnitude_saliency",
        "squared_saliency",
        "get_saliency_metric",
        "output_channel_saliency",
    ),
    ".fap": ("FapResult", "build_fap_masks", "apply_fap"),
    ".fam": ("FamResult", "layer_column_permutation", "compute_column_permutations", "apply_fam"),
    ".fat": ("FatResult", "fault_aware_retrain"),
})
