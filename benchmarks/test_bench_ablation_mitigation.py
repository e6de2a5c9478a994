"""Ablation A1: FAP vs FAM vs FAT accuracy at fixed fault rates.

This reproduces the motivation of §I of the paper: fault-aware pruning alone
loses accuracy, saliency-driven mapping (SalvageDNN) recovers part of it for
free, and fault-aware training recovers the most — which is why the paper
focuses on reducing FAT's retraining cost rather than avoiding FAT.
"""

import dataclasses

import numpy as np

from bench_utils import run_once
from repro.accelerator import BatchedFaultTrainer, FaultMap, evaluate_chip_accuracies
from repro.mitigation import parse_strategy
from repro.utils.rng import derive_seed

FAULT_RATES = (0.1, 0.2, 0.3)
RETRAIN_EPOCHS = 1.0


def _evaluate_mitigations(context, fault_rate, seed):
    """Accuracy of clean / FAP / FAM / FAT models for one random fault map."""
    rows, cols = context.array.shape
    fault_map = FaultMap.random(rows, cols, fault_rate, seed=seed)
    context.restore_pretrained()
    fap_masks = parse_strategy("fap").chip_masks(context.model, fault_map)
    fam_masks = parse_strategy("fam").chip_masks(context.model, fault_map)
    results = {"clean": context.clean_accuracy}
    results["fap"], results["fam"] = evaluate_chip_accuracies(
        context.model, context.bundle.test, [fap_masks, fam_masks]
    )

    config = dataclasses.replace(context.preset.retraining, seed=seed)
    fat = BatchedFaultTrainer(
        context.model, [fap_masks], context.bundle.train, context.bundle.test, config
    ).train(RETRAIN_EPOCHS)[0]
    results["fat"] = fat.final_accuracy
    return results


def test_ablation_fap_fam_fat(benchmark, fast_context):
    def run_ablation():
        rows = {}
        for rate in FAULT_RATES:
            seed = derive_seed(fast_context.preset.seed, "ablation-a1", f"{rate:.3f}")
            rows[rate] = _evaluate_mitigations(fast_context, rate, seed)
        return rows

    table = run_once(benchmark, run_ablation)

    print("\nAblation A1: accuracy by mitigation technique")
    print(f"{'fault rate':>10} | {'clean':>7} {'FAP':>7} {'FAM':>7} {'FAT(1ep)':>9}")
    for rate, row in table.items():
        print(f"{rate:>10.2f} | {row['clean']:>7.3f} {row['fap']:>7.3f} {row['fam']:>7.3f} {row['fat']:>9.3f}")

    for rate, row in table.items():
        # FAT recovers (almost) everything FAP lost.
        assert row["fat"] >= row["fap"] - 0.02
    # FAM steers low-saliency weights onto faulty PEs; the saliency proxy is
    # not perfect per fault map, but on average over fault rates it should not
    # be worse than naive FAP.
    fam_mean = np.mean([row["fam"] for row in table.values()])
    fap_mean = np.mean([row["fap"] for row in table.values()])
    assert fam_mean >= fap_mean - 0.02
    # At the highest fault rate FAT must clearly beat pruning-only mitigation.
    worst = table[max(FAULT_RATES)]
    assert worst["fat"] > worst["fap"]
