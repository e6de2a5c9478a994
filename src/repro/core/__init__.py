"""The Reduce framework (the paper's primary contribution).

Step 1 — :mod:`repro.core.resilience` (fault-injection resilience analysis),
Step 2 — :mod:`repro.core.selection` (resilience-driven retraining-amount selection),
Step 3 — :mod:`repro.core.reduce` (triage and the retraining of one stack of
chips; :class:`repro.campaign.CampaignEngine` drives Step 3 over a population).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".chips": ("Chip", "ChipPopulation"),
    ".constraints": ("AccuracyConstraint",),
    ".profiles": ("ResilienceProfile",),
    ".resilience": ("ResilienceAnalyzer", "ResilienceConfig"),
    ".adaptive": ("AdaptiveCampaignResult", "adaptive_retrain_chip", "run_adaptive_campaign"),
    ".overhead": (
        "CampaignOverhead",
        "RetrainingCostModel",
        "campaign_overhead",
        "overhead_saving",
    ),
    ".selection": (
        "RetrainingPolicy",
        "FixedEpochPolicy",
        "ResilienceDrivenPolicy",
    ),
    ".results": ("ChipRetrainingResult",),
    ".reduce": ("CampaignResult", "ReduceConfig", "ReduceFramework"),
    ".reporting": (
        "campaign_summary_table",
        "campaign_scatter_csv",
        "format_table",
    ),
})
