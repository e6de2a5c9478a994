"""Systolic-array accelerator model.

The model follows the TPU-style weight-stationary design assumed by the
paper (and by Zhang et al., VTS 2018, whose FAP-enabled accelerator the paper
adopts): an ``R x C`` grid of multiply-accumulate PEs, where each PE holds one
weight, activations stream in from the left (one row per reduction index) and
partial sums flow down each column (one column per output neuron / channel).

The class bundles the array geometry, an optional :class:`FaultMap`, and the
technology parameters used by the timing and energy models.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.accelerator.fault_map import FaultMap


@dataclasses.dataclass(frozen=True)
class ArrayTechnology:
    """Technology/operating parameters used by the timing and energy models.

    Default values are representative of an edge-scale inference accelerator
    in a recent CMOS node; the experiments only rely on *relative* numbers.
    """

    frequency_mhz: float = 700.0
    mac_energy_pj: float = 0.9
    sram_access_energy_pj: float = 5.0
    dram_access_energy_pj: float = 160.0
    bytes_per_weight: int = 1
    bytes_per_activation: int = 1

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")
        if min(self.mac_energy_pj, self.sram_access_energy_pj, self.dram_access_energy_pj) < 0:
            raise ValueError("energy parameters must be non-negative")


class SystolicArray:
    """Geometry + fault state of a weight-stationary systolic array."""

    def __init__(
        self,
        rows: int = 256,
        cols: int = 256,
        fault_map: Optional[FaultMap] = None,
        technology: Optional[ArrayTechnology] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if fault_map is not None and fault_map.shape != (rows, cols):
            raise ValueError(
                f"fault map shape {fault_map.shape} does not match array ({rows}, {cols})"
            )
        self.rows = rows
        self.cols = cols
        self.fault_map = fault_map if fault_map is not None else FaultMap.none(rows, cols)
        self.technology = technology if technology is not None else ArrayTechnology()

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def num_faulty_pes(self) -> int:
        return self.fault_map.num_faulty

    @property
    def fault_rate(self) -> float:
        return self.fault_map.fault_rate

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "fault_map": self.fault_map.to_dict(),
            "technology": dataclasses.asdict(self.technology),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystolicArray":
        fault_map = FaultMap.from_dict(data["fault_map"]) if "fault_map" in data else None
        technology = (
            ArrayTechnology(**data["technology"]) if "technology" in data else None
        )
        return cls(
            int(data["rows"]), int(data["cols"]), fault_map=fault_map, technology=technology
        )

    def __repr__(self) -> str:
        return (
            f"SystolicArray({self.rows}x{self.cols}, faulty_pes={self.num_faulty_pes}, "
            f"fault_rate={self.fault_rate:.4f})"
        )
