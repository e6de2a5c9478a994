"""Mitigation strategies: how a chip is mitigated, as a first-class axis.

The paper's central claim is comparative: fault-aware *retraining* (FAT)
beats — and composes with — cheaper mitigations such as fault-aware pruning
(FAP), fault-aware mapping (FAM) and PE bypass.  A
:class:`MitigationStrategy` captures one point of that comparison as a
declarative recipe the campaign machinery can sweep:

* which weights are clamped to zero (plain FAP masks, or FAM's
  saliency-permuted masks),
* whether the faulty rows/columns are bypassed instead (shrunk array:
  accuracy preserved, throughput lost),
* whether the Step-2 retraining budget is actually spent (FAT).

Strategies are named by ``+``-separated component specs — ``"fat"``,
``"fap"``, ``"fam+fat"``, ``"bypass+fat"``, ``"none"`` — and resolve to
frozen, hashable objects.  Everything downstream of mask construction is
unchanged: a strategy's masks flow into the same stacked keep-multiplier
tensors (:class:`~repro.accelerator.batched.BatchedFaultTrainer`) that plain
FAT uses, so ``--jobs N x --fat-batch B`` campaigns execute any
strategy without new training machinery.

Semantics of the components
---------------------------

``none``
    No mitigation effort.  The permanent faults still zero the weights
    mapped onto faulty PEs (that is the physical fault model), but nothing
    is gated, remapped, bypassed or retrained.
``fap``
    Fault-aware pruning (Zhang et al., VTS 2018): the faulty-PE weights are
    clamped at zero and the hardware clock-gates the corresponding MACs
    (modelled as a MAC-energy saving).  Accuracy equals the unmitigated
    faulty accuracy; no retraining is spent.
``fam``
    Fault-aware mapping (SalvageDNN): a saliency-driven column permutation
    steers the least-salient output channels onto the faultiest physical
    columns before pruning.  Implies pruning of the (permuted) masks.  An
    optional metric suffix selects the saliency metric (``fam:squared``;
    default magnitude) and is part of the strategy's identity.
``bypass``
    Classic row/column bypass: the faulty rows or columns are skipped so the
    surviving PEs form a smaller fault-free array.  Accuracy is preserved
    perfectly where feasible, at a throughput cost
    (:func:`~repro.accelerator.bypass.bypass_slowdown`); at high fault rates
    bypass can be infeasible (every row *and* column contains faults).
``fat``
    Fault-aware retraining: spend the Step-2 budget with the strategy's
    masks enforced.  ``bypass+fat`` is a hybrid: chips where bypass is
    feasible skip retraining entirely, chips where it is not fall back to
    FAP + FAT.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.accelerator.bypass import BypassPlan, best_bypass_plan
from repro.accelerator.fault_map import FaultMap
from repro.mitigation.fam import compute_column_permutations
from repro.mitigation.fap import build_fap_masks

MaskDict = Dict[str, np.ndarray]

#: Components a strategy spec may be composed of.
STRATEGY_COMPONENTS = ("none", "fap", "fam", "bypass", "fat")

#: Canonical saliency-metric names (aliases collapse so that equivalent
#: FAM specs share one identity: ``fam:l1`` is ``fam``, ``fam:l2`` is
#: ``fam:squared``).
_METRIC_CANONICAL = {
    "magnitude": "magnitude",
    "l1": "magnitude",
    "squared": "squared",
    "l2": "squared",
}

#: The strategy of every pre-existing campaign: FAP masks + retraining.
DEFAULT_STRATEGY_NAME = "fat"


def compose_masks(*mask_dicts: Optional[MaskDict]) -> MaskDict:
    """Union of several per-layer boolean mask sets (keep-multiplier product).

    Utility for callers layering additional prune masks on top of a
    strategy's fault masks (e.g. conventional sparsity pruning before FAT): a
    weight is clamped when *any* source masks it, and since masks are
    enforced as multiplicative float keep-factors (1.0 keep / 0.0 clamp) the
    union of boolean masks equals the product of their keep-multipliers, so
    the composed dict feeds the serial and stacked trainers unchanged.
    """
    composed: MaskDict = {}
    for masks in mask_dicts:
        if not masks:
            continue
        for name, mask in masks.items():
            if name in composed:
                if composed[name].shape != mask.shape:
                    raise ValueError(
                        f"cannot compose masks of shapes {composed[name].shape} and "
                        f"{mask.shape} for layer {name!r}"
                    )
                composed[name] = composed[name] | np.asarray(mask, dtype=bool)
            else:
                composed[name] = np.asarray(mask, dtype=bool)
    return composed


@dataclasses.dataclass(frozen=True)
class MitigationStrategy:
    """One mitigation recipe: masks to enforce, bypass plan, retraining or not."""

    name: str
    prune: bool = False
    remap: bool = False
    bypass: bool = False
    retrain: bool = False
    saliency_metric: str = "magnitude"

    # -- identity ----------------------------------------------------------------

    def gates_pruned_macs_for(self, fault_map: FaultMap) -> bool:
        """Whether *this chip's* executed mitigation clock-gates pruned MACs.

        Pruning strategies gate every chip; a retraining bypass strategy
        gates exactly its FAP+FAT fallback chips (a bypassed chip prunes
        nothing, and plain ``bypass``/``none`` never gate).  This is the
        per-chip rule the energy accounting must follow — keep it here so
        new strategy variants cannot drift from their reported overheads.
        """
        if self.bypass:
            return self.retrain and self.bypass_plan(fault_map) is None
        return self.prune

    @property
    def triage_key(self) -> str:
        """Strategies sharing this key measure ``accuracy_before`` under the
        same masks, so a sweep can share one batched triage pass among them."""
        if self.remap:
            return f"fam:{self.saliency_metric}"
        return "fap"

    # -- bypass ------------------------------------------------------------------

    def bypass_plan(self, fault_map: FaultMap) -> Optional[BypassPlan]:
        """The row/column bypass plan for a chip, or ``None``.

        ``None`` means bypass does not apply: either this strategy does not
        bypass at all, or every row and column of the fault map contains a
        fault (bypass infeasible — ``bypass+fat`` falls back to FAT then).
        """
        if not self.bypass:
            return None
        try:
            return best_bypass_plan(fault_map)
        except ValueError:
            return None

    # -- per-chip work definition ---------------------------------------------------

    def effective_epochs(self, epochs: float, fault_map: FaultMap) -> float:
        """The retraining budget actually spent on a chip under this strategy.

        Non-retraining strategies spend nothing; a bypassable chip under
        ``bypass+fat`` spends nothing either (its accuracy is already
        preserved by the shrunk array).
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not self.retrain:
            return 0.0
        if self.bypass and self.bypass_plan(fault_map) is not None:
            return 0.0
        return float(epochs)

    def chip_masks(self, model: nn.Module, fault_map: FaultMap) -> MaskDict:
        """Per-layer masks the chip's weights are clamped with.

        For FAM strategies the masks come from the saliency-driven column
        permutation (computed against the model's *current* — i.e.
        pre-trained — weights); everything else uses the plain periodic fault
        masks.  Bypass strategies also return the plain masks: they describe
        the chip's physical faults, which is what ``accuracy_before`` is
        measured under and what the FAT fallback trains against.
        """
        if self.remap:
            permutations = compute_column_permutations(
                model, fault_map, metric=self.saliency_metric
            )
            return build_fap_masks(model, fault_map, permutations)
        return build_fap_masks(model, fault_map)


def _parse_spec(spec: str) -> Tuple[Tuple[str, ...], str]:
    """Split a spec into its base components and the FAM saliency metric.

    A ``fam`` component may carry a metric suffix (``fam:l2``); aliases
    collapse to their canonical metric so equivalent specs share an identity.
    """
    raw = [part.strip().lower() for part in spec.split("+")]
    if not raw or any(not part for part in raw):
        raise ValueError(f"empty component in strategy spec {spec!r}")
    parts = []
    metric = "magnitude"
    for part in raw:
        base, _, suffix = part.partition(":")
        if suffix:
            if base != "fam":
                raise ValueError(
                    f"only 'fam' takes a saliency-metric suffix, got {part!r} in {spec!r}"
                )
            if suffix not in _METRIC_CANONICAL:
                raise ValueError(
                    f"unknown saliency metric {suffix!r} in {spec!r}; "
                    f"available: {', '.join(sorted(set(_METRIC_CANONICAL)))}"
                )
            metric = _METRIC_CANONICAL[suffix]
        parts.append(base)
    unknown = [part for part in parts if part not in STRATEGY_COMPONENTS]
    if unknown:
        raise ValueError(
            f"unknown strategy component(s) {unknown} in {spec!r}; "
            f"available: {', '.join(STRATEGY_COMPONENTS)}"
        )
    if len(set(parts)) != len(parts):
        raise ValueError(f"duplicate component in strategy spec {spec!r}")
    if "none" in parts and len(parts) > 1:
        raise ValueError(f"'none' cannot be combined with other components ({spec!r})")
    if "bypass" in parts and ("fap" in parts or "fam" in parts):
        raise ValueError(
            f"'bypass' cannot combine with 'fap'/'fam' ({spec!r}): the bypassed "
            "array has no faulty PEs left to prune or remap"
        )
    if "fam" in parts and "fap" in parts:
        raise ValueError(f"'fam' already implies pruning; drop 'fap' from {spec!r}")
    return tuple(parts), metric


def parse_strategy(spec: str) -> MitigationStrategy:
    """Parse a ``+``-separated strategy spec into a :class:`MitigationStrategy`.

    The canonicalised spec is the strategy's name and identity — component
    order, case and metric aliases must not change which campaign (and which
    resumable store) a spec names, so ``"fat+fap"`` is ``"fap+fat"`` and
    ``"fam:l1+fat"`` is ``"fam+fat"``, while a non-default FAM metric is part
    of the name (``"fam:squared+fat"``) and therefore of every job's
    fingerprint.  ``"fat"`` and ``"fap+fat"`` are distinct sweepable
    strategies even though their per-chip results are bit-identical in this
    substrate (FAT always enforces the FAP masks).
    """
    parts, metric = _parse_spec(spec)
    # Canonical component order: identity must not depend on how the user
    # spelled the spec ("fat+fap" and "fap+fat" are the same campaign, the
    # same fingerprint and the same resumable store).
    parts = tuple(sorted(parts, key=STRATEGY_COMPONENTS.index))
    name = "+".join(
        part if part != "fam" or metric == "magnitude" else f"fam:{metric}"
        for part in parts
    )
    retrain = "fat" in parts
    remap = "fam" in parts
    bypass = "bypass" in parts
    # Pruning (with MAC clock-gating) is explicit via fap/fam, and implied by
    # FAT on a non-bypassed array — retraining clamps the faulty weights.
    prune = ("fap" in parts) or remap or (retrain and not bypass)
    return MitigationStrategy(
        name=name,
        prune=prune,
        remap=remap,
        bypass=bypass,
        retrain=retrain,
        saliency_metric=metric,
    )


StrategyLike = Union[str, MitigationStrategy, None]


def resolve_strategy(strategy: StrategyLike) -> MitigationStrategy:
    """Coerce a spec string / strategy / ``None`` into a strategy instance.

    ``None`` resolves to the default FAT strategy, i.e. the exact behaviour
    of every pre-strategy campaign.  :func:`parse_strategy` is the canonical
    constructor: a strategy's ``name`` is its campaign identity (job tags,
    fingerprints, stores), so hand-built instances must keep the name
    consistent with their flags and metric.
    """
    if strategy is None:
        return parse_strategy(DEFAULT_STRATEGY_NAME)
    if isinstance(strategy, MitigationStrategy):
        return strategy
    return parse_strategy(str(strategy))


def parse_strategy_list(
    specs: Union[str, Sequence[Union[str, "MitigationStrategy"]]],
) -> Tuple[MitigationStrategy, ...]:
    """Parse a comma-separated string (or sequence of specs / strategies).

    Order is preserved and duplicates (by canonical name) are rejected — a
    sweep runs each strategy exactly once.
    """
    if isinstance(specs, str):
        items: Sequence[Union[str, MitigationStrategy]] = [
            item for item in (part.strip() for part in specs.split(",")) if item
        ]
    else:
        items = list(specs)
    if not items:
        raise ValueError("at least one mitigation strategy is required")
    strategies = tuple(resolve_strategy(item) for item in items)
    names = [strategy.name for strategy in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate strategies in {list(names)}")
    return strategies


def available_strategies() -> Tuple[str, ...]:
    """Canonical names of the common, known-good strategy specs."""
    return ("none", "fap", "fam", "fat", "fap+fat", "fam+fat", "bypass", "bypass+fat")
