"""The Reduce framework (the paper's primary contribution).

Step 1 — :mod:`repro.core.resilience` (fault-injection resilience analysis),
Step 2 — :mod:`repro.core.selection` (resilience-driven retraining-amount selection),
Step 3 — :mod:`repro.core.reduce` (triage and the retraining of one stack of
chips; :class:`repro.campaign.CampaignEngine` drives Step 3 over a population).
"""

from repro.core.chips import Chip, ChipPopulation
from repro.core.constraints import AccuracyConstraint
from repro.core.profiles import ResilienceProfile, load_profile, save_profile
from repro.core.resilience import ResilienceAnalyzer, ResilienceConfig, analyze_resilience
from repro.core.adaptive import (
    AdaptiveCampaignResult,
    adaptive_retrain_chip,
    run_adaptive_campaign,
)
from repro.core.overhead import (
    CampaignOverhead,
    RetrainingCostModel,
    campaign_overhead,
    overhead_saving,
)
from repro.core.selection import (
    RetrainingPolicy,
    FixedEpochPolicy,
    ResilienceDrivenPolicy,
    make_policy,
)
from repro.core.reduce import (
    ChipRetrainingResult,
    CampaignResult,
    ReduceConfig,
    ReduceFramework,
)
from repro.core.reporting import (
    campaign_summary_table,
    campaign_scatter_csv,
    format_table,
    constraint_satisfaction_report,
)

__all__ = [
    "Chip",
    "ChipPopulation",
    "AccuracyConstraint",
    "ResilienceProfile",
    "save_profile",
    "load_profile",
    "ResilienceAnalyzer",
    "ResilienceConfig",
    "analyze_resilience",
    "AdaptiveCampaignResult",
    "adaptive_retrain_chip",
    "run_adaptive_campaign",
    "CampaignOverhead",
    "RetrainingCostModel",
    "campaign_overhead",
    "overhead_saving",
    "RetrainingPolicy",
    "FixedEpochPolicy",
    "ResilienceDrivenPolicy",
    "make_policy",
    "ChipRetrainingResult",
    "CampaignResult",
    "ReduceConfig",
    "ReduceFramework",
    "campaign_summary_table",
    "campaign_scatter_csv",
    "format_table",
    "constraint_satisfaction_report",
]
