"""Fault-injection models generating :class:`FaultMap` instances.

A fault model captures *how* permanent faults are distributed over the PE
array of a fabricated chip.  The paper uses a uniformly random model (as in
Zhang et al., VTS 2018); clustered and row/column models are provided for the
sensitivity ablation (``benchmarks/test_bench_ablation_faultmodel.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.accelerator.fault_map import FaultMap


class FaultModel:
    """Base class: sample fault maps for an ``R x C`` array."""

    name: str = "base"

    def sample(self, rows: int, cols: int, fault_rate: float, rng: np.random.Generator) -> FaultMap:
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclasses.dataclass
class RandomFaultModel(FaultModel):
    """Uniformly random permanent faults (the paper's model).

    ``exact=True`` fixes the number of faulty PEs to ``round(rate * PEs)``.
    """

    exact: bool = True
    name: str = "random"

    def sample(self, rows: int, cols: int, fault_rate: float, rng: np.random.Generator) -> FaultMap:
        return FaultMap.random(rows, cols, fault_rate, seed=rng, exact=self.exact)


@dataclasses.dataclass
class ClusteredFaultModel(FaultModel):
    """Spatially clustered faults modelling localized manufacturing defects."""

    cluster_size: int = 4
    name: str = "clustered"

    def sample(self, rows: int, cols: int, fault_rate: float, rng: np.random.Generator) -> FaultMap:
        return FaultMap.clustered(rows, cols, fault_rate, cluster_size=self.cluster_size, seed=rng)


@dataclasses.dataclass
class ColumnFaultModel(FaultModel):
    """Entire columns fail (e.g. broken weight-load buses)."""

    name: str = "column"

    def sample(self, rows: int, cols: int, fault_rate: float, rng: np.random.Generator) -> FaultMap:
        num_cols = int(round(fault_rate * cols))
        chosen = rng.choice(cols, size=num_cols, replace=False) if num_cols else []
        return FaultMap.faulty_columns(rows, cols, chosen)

