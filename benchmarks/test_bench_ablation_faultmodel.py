"""Ablation A2: sensitivity of the resilience profile to the fault model and array size.

The paper assumes a uniformly random fault model on a 256x256 array.  This
ablation checks how the no-retraining accuracy degradation changes when the
faults are spatially clustered or kill whole columns, and when the array is
smaller (which makes the periodic fault pattern coarser relative to the layer
sizes).
"""

import numpy as np
import pytest

from bench_utils import run_once
from repro.accelerator import (
    ClusteredFaultModel,
    ColumnFaultModel,
    FaultMap,
    RandomFaultModel,
    evaluate_chip_accuracies,
    model_fault_masks,
    masked_weight_fraction,
)
from repro.training import TrainingConfig
from repro.utils.rng import derive_seed

FAULT_RATE = 0.2
TRIALS = 3
# ``evaluate_accuracy``'s batch size.
EVAL_CONFIG = TrainingConfig(batch_size=128)


def _mean_fap_accuracy(context, fault_model, rows, cols):
    """Mean FAP-only accuracy over the trials' fault maps, evaluated as one stack."""
    context.restore_pretrained()
    mask_sets = []
    for trial in range(TRIALS):
        seed = derive_seed(context.preset.seed, "ablation-a2", fault_model.name, rows, trial)
        rng = np.random.default_rng(seed)
        fault_map = fault_model.sample(rows, cols, FAULT_RATE, rng)
        mask_sets.append(model_fault_masks(context.model, fault_map))
    accuracies = evaluate_chip_accuracies(
        context.model, context.bundle.test, mask_sets, config=EVAL_CONFIG
    )
    return float(np.mean(accuracies))


def test_ablation_fault_model_sensitivity(benchmark, fast_context):
    models = {
        "random": RandomFaultModel(),
        "clustered": ClusteredFaultModel(cluster_size=16),
        "column": ColumnFaultModel(),
    }
    rows, cols = fast_context.array.shape

    def run_sweep():
        return {name: _mean_fap_accuracy(fast_context, model, rows, cols) for name, model in models.items()}

    accuracies = run_once(benchmark, run_sweep)

    print(f"\nAblation A2a: FAP-only accuracy at fault rate {FAULT_RATE} by fault model")
    for name, accuracy in accuracies.items():
        print(f"  {name:>10}: {accuracy:.3f}")

    clean = fast_context.clean_accuracy
    # Every fault model hurts accuracy at 20 % faults, whatever its shape.
    for name, accuracy in accuracies.items():
        assert accuracy <= clean + 0.02, name
    # Whole-column faults zero entire output channels and are at least as
    # damaging as the same number of uniformly spread faults.
    assert accuracies["column"] <= accuracies["random"] + 0.05


def test_ablation_array_size_sensitivity(benchmark, fast_context):
    sizes = (16, 32, 64)

    def run_sweep():
        return {
            size: _mean_fap_accuracy(fast_context, RandomFaultModel(), size, size) for size in sizes
        }

    accuracies = run_once(benchmark, run_sweep)

    print(f"\nAblation A2b: FAP-only accuracy at fault rate {FAULT_RATE} by array size")
    for size, accuracy in accuracies.items():
        print(f"  {size:>3}x{size:<3}: {accuracy:.3f}")

    # The masked-weight fraction equals the fault rate regardless of array
    # size, so accuracy should be in the same ballpark for every size.
    values = np.array(list(accuracies.values()))
    assert values.max() - values.min() < 0.45
    for size in sizes:
        fault_map = FaultMap.random(size, size, FAULT_RATE, seed=0)
        masks = model_fault_masks(fast_context.model, fault_map)
        assert masked_weight_fraction(masks) == pytest.approx(FAULT_RATE, abs=0.05)
