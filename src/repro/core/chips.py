"""Faulty-chip abstractions.

Each fabricated accelerator chip has its own permanent-fault map.  The Reduce
framework receives the fault maps of all chips to be deployed and decides,
per chip, how much fault-aware retraining to spend on it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accelerator.fault_map import FaultMap
from repro.accelerator.fault_models import FaultModel, RandomFaultModel
from repro.accelerator.systolic_array import SystolicArray
from repro.utils.rng import SeedLike, new_rng


@dataclasses.dataclass(frozen=True)
class Chip:
    """A fabricated chip: an identifier plus its permanent-fault map."""

    chip_id: str
    fault_map: FaultMap

    @property
    def fault_rate(self) -> float:
        """Fraction of faulty PEs — the statistic Reduce keys its policy on."""
        return self.fault_map.fault_rate

    def array(self, technology=None) -> SystolicArray:
        """The chip viewed as a :class:`SystolicArray` with its fault map."""
        rows, cols = self.fault_map.shape
        return SystolicArray(rows, cols, fault_map=self.fault_map, technology=technology)

    def to_dict(self) -> Dict[str, Any]:
        return {"chip_id": self.chip_id, "fault_map": self.fault_map.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Chip":
        return cls(chip_id=str(data["chip_id"]), fault_map=FaultMap.from_dict(data["fault_map"]))


class ChipPopulation:
    """An ordered collection of faulty chips (e.g. one production lot)."""

    def __init__(self, chips: Sequence[Chip]) -> None:
        if not chips:
            raise ValueError("a chip population must contain at least one chip")
        ids = [chip.chip_id for chip in chips]
        if len(set(ids)) != len(ids):
            raise ValueError("chip identifiers must be unique")
        shapes = {chip.fault_map.shape for chip in chips}
        if len(shapes) != 1:
            raise ValueError(f"all chips must share the same array shape, got {shapes}")
        self._chips: List[Chip] = list(chips)

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        count: int,
        rows: int,
        cols: int,
        fault_rates: Union[Tuple[float, float], Sequence[float], float] = (0.0, 0.3),
        fault_model: Optional[FaultModel] = None,
        seed: SeedLike = None,
        id_prefix: str = "chip",
    ) -> "ChipPopulation":
        """Generate a random chip population.

        ``fault_rates`` may be a ``(low, high)`` tuple (each chip's fault rate
        is drawn uniformly from the interval — modelling chips of varying
        quality, as in the paper's 100-chip experiment), an explicit sequence
        of per-chip fault rates, or a single value shared by all chips.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        rng = new_rng(seed)
        model = fault_model if fault_model is not None else RandomFaultModel()

        if isinstance(fault_rates, (int, float)):
            rates = np.full(count, float(fault_rates))
        elif isinstance(fault_rates, tuple) and len(fault_rates) == 2:
            low, high = fault_rates
            if not 0.0 <= low <= high <= 1.0:
                raise ValueError(f"invalid fault-rate range {fault_rates}")
            rates = rng.uniform(low, high, size=count)
        else:
            rates = np.asarray(list(fault_rates), dtype=float)
            if rates.shape != (count,):
                raise ValueError(
                    f"expected {count} per-chip fault rates, got {rates.shape[0]}"
                )
        if np.any((rates < 0) | (rates > 1)):
            raise ValueError("fault rates must be in [0, 1]")

        digits = max(3, len(str(count)))
        chips = [
            Chip(
                chip_id=f"{id_prefix}-{index:0{digits}d}",
                fault_map=model.sample(rows, cols, float(rates[index]), rng),
            )
            for index in range(count)
        ]
        return cls(chips)

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._chips)

    def __iter__(self) -> Iterator[Chip]:
        return iter(self._chips)

    def __getitem__(self, index: int) -> Chip:
        return self._chips[index]

    @property
    def chips(self) -> List[Chip]:
        return list(self._chips)

    @property
    def array_shape(self) -> Tuple[int, int]:
        return self._chips[0].fault_map.shape

    # -- statistics ----------------------------------------------------------------

    def fault_rates(self) -> np.ndarray:
        """Per-chip fault rates in population order."""
        return np.array([chip.fault_rate for chip in self._chips])

    def fault_rate_summary(self) -> Dict[str, float]:
        rates = self.fault_rates()
        return {
            "min": float(rates.min()),
            "max": float(rates.max()),
            "mean": float(rates.mean()),
            "median": float(np.median(rates)),
        }

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"chips": [chip.to_dict() for chip in self._chips]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChipPopulation":
        return cls([Chip.from_dict(entry) for entry in data["chips"]])

    def __repr__(self) -> str:
        summary = self.fault_rate_summary()
        return (
            f"ChipPopulation(n={len(self)}, array={self.array_shape[0]}x{self.array_shape[1]}, "
            f"fault_rate mean={summary['mean']:.3f} range=[{summary['min']:.3f}, {summary['max']:.3f}])"
        )
