"""Reproduction of "Reduce: A Framework for Reducing the Overheads of
Fault-Aware Retraining" (Hanif & Shafique, DATE 2023).

Sub-packages
------------
``repro.nn``           numpy tensors, layers and kernels (PyTorch stand-in)
``repro.data``         datasets, loaders, synthetic CIFAR-10 stand-in
``repro.models``       MLP, LeNet-5 and VGG11 (the paper's network)
``repro.accelerator``  systolic array, fault maps, layer mapping, timing & energy models
``repro.mitigation``   FAP, FAM (SalvageDNN) and FAT baselines
``repro.core``         the Reduce framework (resilience analysis, selection, retraining)
``repro.analysis``     Pareto fronts, statistics, ASCII plotting
``repro.experiments``  runners regenerating every figure of the paper

See ``README.md`` for a quickstart and its "Repository layout" section for
the full inventory.  Every name below is imported on first use.
"""

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    ".": ("nn", "data", "models", "accelerator", "mitigation", "analysis", "core",
          "experiments"),
    ".accelerator": ("FaultMap", "SystolicArray"),
    ".core": (
        "AccuracyConstraint",
        "Chip",
        "ChipPopulation",
        "ReduceConfig",
        "ReduceFramework",
        "ResilienceConfig",
        "ResilienceProfile",
        "FixedEpochPolicy",
        "ResilienceDrivenPolicy",
    ),
    ".training": ("Trainer", "TrainingConfig", "evaluate_accuracy"),
})
__all__.insert(0, "__version__")
