"""Mitigation-strategy comparison experiment (``repro-reduce compare``).

Runs one faulty-chip population through K mitigation strategies (via
:func:`~repro.campaign.sweep.run_strategy_sweep`) and reduces the per-chip
results to a per-strategy comparison table: accuracy recovered, retraining
epochs spent, and the hardware-side overheads that the accuracy numbers alone
hide — the MAC-energy saving of clock-gated pruned weights
(:mod:`repro.accelerator.energy`) and the throughput cost of bypassing faulty
rows/columns (:func:`~repro.accelerator.bypass.bypass_slowdown`).  The
strategies on the Pareto front of (average epochs, % of chips meeting the
constraint) are reported via :mod:`repro.analysis.pareto`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accelerator.bypass import bypass_slowdown
from repro.accelerator.energy import estimate_model_energy
from repro.analysis.pareto import pareto_mask
from repro.campaign.engine import PathLike
from repro.campaign.sweep import StrategySweepResult, run_strategy_sweep
from repro.core.chips import ChipPopulation
from repro.core.reporting import format_table
from repro.core.selection import FixedEpochPolicy, RetrainingPolicy
from repro.experiments.common import ExperimentContext
from repro.experiments.fig3 import build_population
from repro.mitigation.strategy import MitigationStrategy, resolve_strategy
from repro.utils.logging import get_logger

logger = get_logger("experiments.compare")


@dataclasses.dataclass
class CompareResult:
    """The per-strategy comparison table plus the underlying sweep."""

    sweep: StrategySweepResult
    rows: List[Dict[str, object]]

    @property
    def strategy_names(self) -> List[str]:
        return [str(row["strategy"]) for row in self.rows]

    def row(self, strategy: str) -> Dict[str, object]:
        for row in self.rows:
            if row["strategy"] == strategy:
                return row
        raise KeyError(f"unknown strategy {strategy!r}; available: {self.strategy_names}")

    def pareto_strategies(self) -> List[str]:
        """Strategies on the Pareto front of (avg epochs ↓, % meeting ↑)."""
        mask = pareto_mask(
            [float(row["average_epochs"]) for row in self.rows],
            [float(row["percent_meeting_constraint"]) for row in self.rows],
        )
        return [str(row["strategy"]) for row, keep in zip(self.rows, mask) if keep]

    def table(self) -> str:
        """The per-strategy comparison as a fixed-width text table."""
        headers = [
            "strategy",
            "avg epochs/chip",
            "% meeting",
            "mean acc before",
            "mean acc after",
            "acc recovered",
            "masked frac",
            "energy x",
            "slowdown x",
            "bypassed",
        ]
        body = [
            [
                str(row["strategy"]),
                f"{row['average_epochs']:.4f}",
                f"{row['percent_meeting_constraint']:.1f}",
                f"{row['mean_accuracy_before']:.4f}",
                f"{row['mean_accuracy_after']:.4f}",
                f"{row['mean_accuracy_recovered']:+.4f}",
                f"{row['mean_masked_fraction']:.4f}",
                f"{row['energy_ratio']:.3f}",
                f"{row['mean_slowdown']:.3f}",
                f"{row['bypassed_chips']}/{row['num_chips']}",
            ]
            for row in self.rows
        ]
        return format_table(headers, body)

    def to_dict(self) -> Dict[str, object]:
        return {
            "target_accuracy": self.sweep.target_accuracy,
            "clean_accuracy": self.sweep.clean_accuracy,
            "policy": self.sweep.policy_name,
            "strategies": self.rows,
            "pareto_strategies": self.pareto_strategies(),
            # Full per-chip rows per strategy, so a summary artifact suffices
            # to audit any cell of the comparison (and to diff runs bit for
            # bit without re-opening the campaign stores).
            "campaigns": {
                name: campaign.to_dict()
                for name, campaign in self.sweep.campaigns.items()
            },
        }


def _strategy_overheads(
    context: ExperimentContext,
    strategy: MitigationStrategy,
    population: ChipPopulation,
    masked_fractions: Sequence[float],
    baseline_nj: float,
    slowdown_by_chip: Dict[str, float],
) -> Dict[str, object]:
    """Energy ratio, timing slowdown and bypass feasibility for one strategy.

    Energy is the per-inference estimate on the full array, with the MAC
    energy of clamped weights gated away wherever the executed mitigation
    actually pruned (the FAP hardware clock-gates bypassed multipliers).
    Gating is decided *per chip*: pruning strategies gate every chip, and a
    retraining bypass strategy gates exactly its FAP+FAT fallback chips —
    bypassable chips prune nothing, and plain ``bypass``/``none`` chips are
    never gated.  The ratio is against the un-gated fault-free
    ``baseline_nj``.  The slowdown is averaged over the population:
    bypassable chips pay their shrunk-array latency ratio, everything else
    runs at full speed (1.0).  Per-chip slowdowns are memoized in
    ``slowdown_by_chip`` — feasibility and latency depend only on the chip's
    fault map, so every bypass strategy of a sweep shares them.
    """
    input_shape = context.bundle.input_shape
    slowdowns: List[float] = []
    gated_fractions: List[float] = []
    bypassed = 0
    for chip, masked_fraction in zip(population, masked_fractions):
        plan = strategy.bypass_plan(chip.fault_map)
        if plan is not None:
            bypassed += 1
            if chip.chip_id not in slowdown_by_chip:
                slowdown_by_chip[chip.chip_id] = bypass_slowdown(
                    context.model, chip.array(), input_shape
                )
            slowdowns.append(slowdown_by_chip[chip.chip_id])
            gated_fractions.append(0.0)  # nothing pruned on a bypassed chip
        else:
            slowdowns.append(1.0)
            gates = strategy.gates_pruned_macs_for(chip.fault_map)
            gated_fractions.append(float(masked_fraction) if gates else 0.0)
    strategy_nj = estimate_model_energy(
        context.model,
        context.array,
        input_shape,
        zero_weight_fraction=float(np.mean(gated_fractions)) if gated_fractions else 0.0,
    ).total_nj
    return {
        "energy_ratio": float(strategy_nj / baseline_nj) if baseline_nj else 1.0,
        "mean_slowdown": float(np.mean(slowdowns)) if slowdowns else 1.0,
        "bypassed_chips": bypassed,
    }


def run_compare(
    context: ExperimentContext,
    strategies: Union[str, Sequence[Union[str, MitigationStrategy]]],
    num_chips: Optional[int] = None,
    policy: Optional[RetrainingPolicy] = None,
    policy_name: str = "reduce-max",
    fixed_epochs: float = 0.5,
    population: Optional[ChipPopulation] = None,
    jobs: int = 1,
    campaign_dir: Optional[PathLike] = None,
    resume: bool = True,
    progress: bool = False,
    fat_batch: Optional[int] = None,
    disk_cache_dir: Optional[PathLike] = None,
    max_chunk_retries: Optional[int] = None,
    chunk_timeout: Optional[float] = None,
    chaos: Optional[str] = None,
    backend: Optional[str] = None,
    prefetch: bool = True,
    lowering_cache_mb: Optional[float] = None,
    listen: Optional[Tuple[str, int]] = None,
    workers: Optional[Sequence[Tuple[str, int]]] = None,
) -> CompareResult:
    """Run the multi-strategy comparison on the given context.

    ``policy`` overrides the Step-2 policy directly; otherwise it is built
    from ``policy_name`` (``reduce-max``/``reduce-mean`` need the Step-1
    profile, which is computed once and shared; ``fixed`` uses
    ``fixed_epochs``).  Every strategy's campaign is dispatched through the
    shared campaign engine, so ``jobs``, ``fat_batch``, resumable stores
    under ``campaign_dir`` and the fault-tolerance knobs
    (``max_chunk_retries``, ``chunk_timeout``, ``chaos``) apply per strategy,
    as does the compute ``backend`` (``None`` = eager, ``"numpy"`` = replay;
    the engine rejects anything else before it writes a store).

    ``prefetch`` accepts only ``True`` and ``lowering_cache_mb`` only
    ``None``: the background eval-lowering prefetch thread and the shared
    eval-lowering cache have been removed (neither showed a measured win),
    and the keywords stay only so callers that still pass them keep
    working.  Any other value raises :class:`ValueError`.
    """
    if prefetch is not True:
        raise ValueError(
            "prefetch must be True: the eval-lowering prefetch thread was removed"
        )
    if lowering_cache_mb is not None:
        raise ValueError(
            "lowering_cache_mb must be None: the eval-lowering cache was removed"
        )
    chips = population if population is not None else build_population(context, num_chips)
    if policy is None:
        if policy_name == "fixed":
            policy = FixedEpochPolicy(fixed_epochs)
        elif policy_name in ("reduce-max", "reduce-mean"):
            context.resilience_profile()
            policy = context.framework().build_policy(policy_name.split("-", 1)[1])
        else:
            raise ValueError(
                f"unknown policy {policy_name!r}; expected reduce-max, reduce-mean or fixed"
            )

    sweep = run_strategy_sweep(
        context,
        chips,
        policy,
        strategies,
        jobs=jobs,
        store_base=campaign_dir,
        resume=resume,
        progress=progress,
        fat_batch=fat_batch,
        disk_cache_dir=disk_cache_dir,
        max_chunk_retries=max_chunk_retries,
        chunk_timeout=chunk_timeout,
        chaos=chaos,
        backend=backend,
        listen=listen,
        workers=workers,
    )

    rows: List[Dict[str, object]] = []
    baseline_nj = estimate_model_energy(
        context.model, context.array, context.bundle.input_shape
    ).total_nj
    slowdown_by_chip: Dict[str, float] = {}
    for name, campaign in sweep.campaigns.items():
        strategy = resolve_strategy(name)
        recovered = [result.accuracy_recovered for result in campaign.results]
        before = [result.accuracy_before for result in campaign.results]
        masked = [result.masked_weight_fraction for result in campaign.results]
        mean_masked = float(np.mean(masked))
        row: Dict[str, object] = {
            "strategy": name,
            "num_chips": campaign.num_chips,
            "average_epochs": campaign.average_epochs,
            "total_epochs": campaign.total_epochs,
            "percent_meeting_constraint": campaign.percent_meeting_constraint,
            "mean_accuracy_before": float(np.mean(before)),
            "mean_accuracy_after": campaign.mean_accuracy,
            "worst_accuracy": campaign.worst_accuracy,
            "mean_accuracy_recovered": float(np.mean(recovered)),
            "mean_masked_fraction": mean_masked,
        }
        row.update(
            _strategy_overheads(
                context, strategy, chips, masked, baseline_nj, slowdown_by_chip
            )
        )
        rows.append(row)
    return CompareResult(sweep=sweep, rows=rows)
