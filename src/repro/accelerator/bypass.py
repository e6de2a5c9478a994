"""PE-bypass (array shrinking) fault-mitigation baseline.

Classic fault-tolerant systolic-array schemes (Kim & Reddy, 1989) bypass the
rows/columns that contain faulty PEs so that the remaining PEs form a smaller
fault-free array.  Accuracy is preserved perfectly, but throughput drops with
the effective array size — which is the motivation the paper gives for
preferring FAP + retraining.  This module quantifies that performance cost so
the trade-off can be reproduced (``benchmarks/test_bench_ablation_bypass.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.systolic_array import SystolicArray
from repro.accelerator.timing import ModelTiming, estimate_model_timing


@dataclasses.dataclass(frozen=True)
class BypassPlan:
    """Effective array size after bypassing faulty rows and/or columns."""

    original_rows: int
    original_cols: int
    effective_rows: int
    effective_cols: int

    @property
    def surviving_pe_fraction(self) -> float:
        return (self.effective_rows * self.effective_cols) / (self.original_rows * self.original_cols)

    def __post_init__(self) -> None:
        if self.effective_rows <= 0 or self.effective_cols <= 0:
            raise ValueError(
                "bypassing removed every row or column; the chip cannot run the workload"
            )


def column_bypass_plan(fault_map: FaultMap) -> BypassPlan:
    """Bypass every column containing at least one faulty PE."""
    bad_columns = len(fault_map.columns_with_faults())
    return BypassPlan(
        original_rows=fault_map.rows,
        original_cols=fault_map.cols,
        effective_rows=fault_map.rows,
        effective_cols=fault_map.cols - bad_columns,
    )


def row_bypass_plan(fault_map: FaultMap) -> BypassPlan:
    """Bypass every row containing at least one faulty PE."""
    bad_rows = len(fault_map.rows_with_faults())
    return BypassPlan(
        original_rows=fault_map.rows,
        original_cols=fault_map.cols,
        effective_rows=fault_map.rows - bad_rows,
        effective_cols=fault_map.cols,
    )


def best_bypass_plan(fault_map: FaultMap) -> BypassPlan:
    """Choose row- or column-bypass, whichever preserves more PEs.

    Either plan may be infeasible at high fault rates (every row/column hit);
    infeasible plans are skipped, and ``ValueError`` is raised when both fail.
    """
    plans = []
    for builder in (column_bypass_plan, row_bypass_plan):
        try:
            plans.append(builder(fault_map))
        except ValueError:
            continue
    if not plans:
        raise ValueError("bypass mitigation is infeasible: every row and column contains faults")
    return max(plans, key=lambda plan: plan.surviving_pe_fraction)


def bypass_timing(
    model: nn.Module,
    array: SystolicArray,
    input_shape: Sequence[int],
    batch_size: int = 1,
    plan: str = "best",
) -> Tuple[BypassPlan, ModelTiming]:
    """Timing of a model on the bypassed (shrunk) array.

    ``plan`` selects ``"row"``, ``"column"`` or ``"best"`` bypassing.
    """
    builders = {
        "row": row_bypass_plan,
        "column": column_bypass_plan,
        "best": best_bypass_plan,
    }
    if plan not in builders:
        raise ValueError(f"unknown bypass plan {plan!r}; expected one of {sorted(builders)}")
    chosen = builders[plan](array.fault_map)
    timing = estimate_model_timing(
        model,
        array,
        input_shape,
        batch_size=batch_size,
        effective_rows=chosen.effective_rows,
        effective_cols=chosen.effective_cols,
    )
    return chosen, timing


def bypass_slowdown(
    model: nn.Module,
    array: SystolicArray,
    input_shape: Sequence[int],
    batch_size: int = 1,
    plan: str = "best",
) -> float:
    """Latency ratio (bypassed array / full array); >= 1.0 by construction."""
    _, shrunk = bypass_timing(model, array, input_shape, batch_size=batch_size, plan=plan)
    full = estimate_model_timing(model, array, input_shape, batch_size=batch_size)
    if full.total_cycles == 0:
        return 1.0
    return shrunk.total_cycles / full.total_cycles
