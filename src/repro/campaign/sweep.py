"""Multi-strategy campaign sweeps: one population, K mitigation strategies.

A sweep answers the paper's comparative question — how does fault-aware
retraining stack up against cheaper mitigations over a whole chip population —
by running the *same* chips and the *same* Step-2 policy through several
:class:`~repro.mitigation.strategy.MitigationStrategy` recipes.  Shared work
is shared:

* Step 1 (the resilience profile) is computed once and cached on the
  experiment context for resilience-driven policies;
* batched triage (``accuracy_before``) is computed once per *triage key* —
  every strategy measuring its initial accuracy under the same masks (plain
  FAP masks for ``none``/``fap``/``fat``/``bypass``..., permuted masks for
  FAM strategies) reuses the same values;
* each strategy's campaign goes through one shared
  :class:`~repro.campaign.engine.CampaignEngine`, so ``--jobs N`` workers and
  ``--fat-batch B`` stacked coalescing apply to every strategy, and each
  strategy owns its own content-addressed resumable store.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.engine import CampaignEngine, CampaignReport, PathLike
from repro.core.chips import ChipPopulation
from repro.core.reduce import CampaignResult
from repro.core.selection import RetrainingPolicy
from repro.mitigation.strategy import MitigationStrategy, parse_strategy_list
from repro.observability import trace
from repro.utils.logging import get_logger

logger = get_logger("campaign.sweep")


@dataclasses.dataclass
class StrategySweepResult:
    """Per-strategy campaign results of one population/policy sweep."""

    policy_name: str
    target_accuracy: float
    clean_accuracy: float
    campaigns: "OrderedDict[str, CampaignResult]"
    reports: Dict[str, CampaignReport]

    @property
    def strategy_names(self) -> List[str]:
        return list(self.campaigns)

    def campaign(self, strategy: str) -> CampaignResult:
        if strategy not in self.campaigns:
            raise KeyError(
                f"unknown strategy {strategy!r}; available: {self.strategy_names}"
            )
        return self.campaigns[strategy]

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy_name": self.policy_name,
            "target_accuracy": self.target_accuracy,
            "clean_accuracy": self.clean_accuracy,
            "strategies": self.strategy_names,
            "campaigns": {name: c.to_dict() for name, c in self.campaigns.items()},
        }


def run_strategy_sweep(
    context,
    population: ChipPopulation,
    policy: RetrainingPolicy,
    strategies: Union[str, Sequence[Union[str, MitigationStrategy]]],
    jobs: int = 1,
    store_base: Optional[PathLike] = None,
    resume: bool = True,
    progress: bool = False,
    fat_batch: Optional[int] = None,
    disk_cache_dir: Optional[PathLike] = None,
    max_chunk_retries: Optional[int] = None,
    chunk_timeout: Optional[float] = None,
    chaos: Optional[str] = None,
    backend: Optional[str] = None,
    listen: Optional[Tuple[str, int]] = None,
    workers: Optional[Sequence[Tuple[str, int]]] = None,
) -> StrategySweepResult:
    """Run one population through K mitigation strategies under one policy.

    ``strategies`` is a comma-separated spec string or a sequence of specs /
    strategy objects; each runs as its own resumable campaign through a
    shared engine, with triage shared among strategies whose initial
    accuracy is measured under the same masks.  The fault-tolerance knobs
    (``max_chunk_retries``, ``chunk_timeout``, ``chaos``) are forwarded to
    the shared engine and therefore apply to every strategy arm, as does the
    compute ``backend`` every arm evaluates through.

    ``listen``/``workers`` turn the shared engine distributed: one socket
    worker fleet serves every strategy arm in sequence (workers stay joined
    across arms) and is shut down when the sweep finishes.
    """
    strategy_list = parse_strategy_list(strategies)

    engine = CampaignEngine(
        context,
        jobs=jobs,
        store_base=store_base,
        resume=resume,
        progress=progress,
        disk_cache_dir=disk_cache_dir,
        fat_batch=fat_batch,
        max_chunk_retries=max_chunk_retries,
        chunk_timeout=chunk_timeout,
        chaos=chaos,
        backend=backend,
        listen=listen,
        workers=workers,
    )
    campaigns: "OrderedDict[str, CampaignResult]" = OrderedDict()
    reports: Dict[str, CampaignReport] = {}
    # One triage dict per triage key: engine.run fills it lazily (only chips
    # actually pending are evaluated) and later strategies with the same key
    # reuse every value already measured.
    triage_by_key: Dict[str, Dict[str, float]] = {}
    try:
        for strategy in strategy_list:
            logger.info(
                "sweep: running strategy %s over %d chips (policy %s)",
                strategy.name,
                len(population),
                policy.name,
            )
            shared_triage = triage_by_key.setdefault(strategy.triage_key, {})
            # One arm span per strategy; the engine's campaign.run span nests
            # inside it, so a sweep trace attributes wall-clock per strategy arm.
            with trace.span(
                "sweep.strategy", strategy=strategy.name, chips=len(population)
            ):
                campaigns[strategy.name] = engine.run(
                    population, policy, strategy=strategy, triage=shared_triage
                )
            reports[strategy.name] = engine.last_report
    finally:
        engine.close()
    framework = context.framework()
    return StrategySweepResult(
        policy_name=policy.name,
        target_accuracy=framework.target_accuracy,
        clean_accuracy=framework.clean_accuracy,
        campaigns=campaigns,
        reports=reports,
    )
