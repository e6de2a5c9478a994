"""Systolic-array accelerator substrate: fault maps, mapping, timing, energy."""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".fault_map": ("FaultMap",),
    ".fault_models": (
        "FaultModel",
        "RandomFaultModel",
        "ClusteredFaultModel",
        "ColumnFaultModel",
    ),
    ".systolic_array": ("ArrayTechnology", "SystolicArray"),
    ".mapping": (
        "GemmShape",
        "LayerMapping",
        "is_mappable",
        "mappable_layers",
        "layer_gemm_shape",
        "weight_matrix_view",
        "gemm_fault_mask",
        "layer_fault_mask",
        "model_fault_masks",
        "masked_weight_fraction",
        "model_mapping",
    ),
    ".batched": (
        "BatchedFaultTrainer",
        "UnsupportedModelError",
        "evaluate_chip_accuracies",
    ),
    ".timing": (
        "GemmWorkload",
        "LayerTiming",
        "ModelTiming",
        "gemm_cycles",
        "gemm_utilization",
        "model_gemm_workloads",
        "estimate_model_timing",
    ),
    ".energy": ("LayerEnergy", "ModelEnergy", "gemm_energy", "estimate_model_energy"),
    ".bypass": (
        "BypassPlan",
        "column_bypass_plan",
        "row_bypass_plan",
        "best_bypass_plan",
        "bypass_timing",
        "bypass_slowdown",
    ),
})
