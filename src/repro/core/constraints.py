"""User-defined accuracy constraints.

The Reduce framework takes an accuracy constraint as input (91 % in the
paper's evaluation) and selects, per chip, the smallest retraining amount
expected to satisfy it.  Because this reproduction runs on a synthetic
CIFAR-10 stand-in, constraints can also be expressed *relative to the
clean accuracy* of the pre-trained model, which keeps the experiment
meaningful regardless of the absolute accuracy the substitute dataset allows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional


@dataclasses.dataclass(frozen=True)
class AccuracyConstraint:
    """An accuracy target, either absolute or relative to the clean accuracy."""

    absolute: Optional[float] = None
    relative_drop: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.absolute is None) == (self.relative_drop is None):
            raise ValueError("specify exactly one of 'absolute' or 'relative_drop'")
        if self.absolute is not None and not 0.0 < self.absolute <= 1.0:
            raise ValueError(f"absolute accuracy constraint must be in (0, 1], got {self.absolute}")
        if self.relative_drop is not None and not 0.0 <= self.relative_drop < 1.0:
            raise ValueError(
                f"relative accuracy drop must be in [0, 1), got {self.relative_drop}"
            )

    @classmethod
    def within_drop_of_clean(cls, drop: float) -> "AccuracyConstraint":
        """Relative constraint: accuracy >= clean_accuracy - ``drop``."""
        return cls(relative_drop=drop)

    def resolve(self, clean_accuracy: Optional[float] = None) -> float:
        """Concrete accuracy threshold given the clean accuracy (if relative)."""
        if self.absolute is not None:
            return self.absolute
        if clean_accuracy is None:
            raise ValueError("a relative constraint requires the clean accuracy to resolve")
        return max(0.0, clean_accuracy - float(self.relative_drop))

    def describe(self, clean_accuracy: Optional[float] = None) -> str:
        if self.absolute is not None:
            return f"accuracy >= {self.absolute:.2%}"
        if clean_accuracy is None:
            return f"accuracy >= clean - {self.relative_drop:.2%}"
        return f"accuracy >= {self.resolve(clean_accuracy):.2%} (clean - {self.relative_drop:.2%})"

    def to_dict(self) -> Dict[str, Any]:
        return {"absolute": self.absolute, "relative_drop": self.relative_drop}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AccuracyConstraint":
        return cls(absolute=data.get("absolute"), relative_drop=data.get("relative_drop"))
