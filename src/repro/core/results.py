"""The per-chip result row of a retraining campaign.

It lives apart from :mod:`repro.core.reduce`, which produces it, so that
auditing a campaign store (``repro-reduce verify-store``) imports no training
or model code.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.mitigation.strategy import DEFAULT_STRATEGY_NAME


@dataclasses.dataclass(frozen=True)
class ChipRetrainingResult:
    """Per-chip outcome of a retraining campaign (one point of Fig. 3a-e)."""

    chip_id: str
    fault_rate: float
    epochs_allocated: float
    epochs_trained: float
    accuracy_before: float
    accuracy_after: float
    meets_constraint: bool
    masked_weight_fraction: float
    # The mitigation strategy the chip was prepared with ("fat" = the
    # classic FAP-masks-plus-retraining flow of the original campaigns).
    strategy: str = DEFAULT_STRATEGY_NAME

    @property
    def accuracy_recovered(self) -> float:
        return self.accuracy_after - self.accuracy_before

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChipRetrainingResult":
        return cls(
            chip_id=str(data["chip_id"]),
            fault_rate=float(data["fault_rate"]),
            epochs_allocated=float(data["epochs_allocated"]),
            epochs_trained=float(data["epochs_trained"]),
            accuracy_before=float(data["accuracy_before"]),
            accuracy_after=float(data["accuracy_after"]),
            meets_constraint=bool(data["meets_constraint"]),
            masked_weight_fraction=float(data["masked_weight_fraction"]),
            strategy=str(data.get("strategy", DEFAULT_STRATEGY_NAME)),
        )
