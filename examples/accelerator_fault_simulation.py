#!/usr/bin/env python3
"""Exploring the accelerator substrate: fault maps, mapping, mitigation trade-offs.

This example does not involve the Reduce policy at all; it demonstrates the
lower layers of the library that the framework is built on:

* generating fault maps with different fault models,
* lowering DNN layers onto the systolic array and deriving FAP masks,
* comparing the mitigation baselines (FAP, FAM/SalvageDNN, FAT) in terms of
  accuracy, and PE-bypass in terms of throughput (the paper's §I motivation),
* the timing/energy model of the weight-stationary array.

Run with::

    python examples/accelerator_fault_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.accelerator import (
    BatchedFaultTrainer,
    ClusteredFaultModel,
    FaultMap,
    RandomFaultModel,
    SystolicArray,
    best_bypass_plan,
    bypass_slowdown,
    estimate_model_energy,
    estimate_model_timing,
    evaluate_chip_accuracies,
    masked_weight_fraction,
    model_fault_masks,
    model_mapping,
)
from repro.data import make_class_template_images
from repro.mitigation import parse_strategy
from repro.models import LeNet5
from repro.training import Trainer, TrainingConfig, evaluate_accuracy


def main() -> None:
    rng_seed = 0
    print("== Accelerator fault simulation ==")

    # ------------------------------------------------------------------ data + model
    bundle = make_class_template_images(
        num_classes=10, train_per_class=40, test_per_class=20,
        image_size=12, noise_std=0.6, shift_pixels=1, seed=7,
    )
    model = LeNet5(input_shape=bundle.input_shape, num_classes=bundle.num_classes, seed=11)
    config = TrainingConfig(learning_rate=0.08, batch_size=40, weight_decay=1e-4, seed=rng_seed)
    print(f"pre-training LeNet-5 on {bundle.name} ...")
    Trainer(model, bundle.train, bundle.test, config).train(10.0)
    clean_accuracy = evaluate_accuracy(model, bundle.test)
    print(f"clean accuracy: {clean_accuracy:.3f}")

    # ------------------------------------------------------------------ fault maps
    array_rows = array_cols = 64
    print(f"\nsystolic array: {array_rows}x{array_cols} (weight-stationary)")
    random_map = RandomFaultModel().sample(array_rows, array_cols, 0.2, np.random.default_rng(1))
    clustered_map = ClusteredFaultModel(cluster_size=16).sample(array_rows, array_cols, 0.2, np.random.default_rng(1))
    print(f"random fault map:    {random_map}")
    print(f"clustered fault map: {clustered_map}")

    # ------------------------------------------------------------------ mapping
    array = SystolicArray(array_rows, array_cols, fault_map=random_map)
    print("\nlayer-to-array mapping (GEMM view and tile counts):")
    for mapping in model_mapping(model, array):
        print(f"  {mapping.layer_name:>22}: K={mapping.gemm.reduce_dim:<5} N={mapping.gemm.output_dim:<5} "
              f"tiles={mapping.num_tiles}")
    masks = model_fault_masks(model, array)
    print(f"fraction of weights mapped onto faulty PEs: {masked_weight_fraction(masks):.3f} "
          f"(PE fault rate {random_map.fault_rate:.3f})")

    # ------------------------------------------------------------------ mitigation comparison
    # Each mitigation is a mask set for the chip; the model keeps its
    # pre-trained weights, and one stack evaluates or retrains under masks.
    print("\nmitigation comparison at 20% faulty PEs:")
    fap_masks = parse_strategy("fap").chip_masks(model, random_map)
    fam_masks = parse_strategy("fam").chip_masks(model, random_map)
    fap_accuracy, fam_accuracy = evaluate_chip_accuracies(
        model, bundle.test, [fap_masks, fam_masks], config
    )
    print(f"  FAP  (prune only)          : {fap_accuracy:.3f}")
    print(f"  FAM  (saliency mapping)    : {fam_accuracy:.3f}")

    fat = BatchedFaultTrainer(model, [fap_masks], bundle.train, bundle.test, config).train(1.0)[0]
    print(f"  FAT  (1 epoch retraining)  : {fat.final_accuracy:.3f}")
    print(f"  clean reference            : {clean_accuracy:.3f}")

    # ------------------------------------------------------------------ bypass baseline
    print("\nPE-bypass baseline (accuracy-preserving but slower):")
    sparse_map = FaultMap.random(array_rows, array_cols, 0.01, seed=3)
    sparse_array = SystolicArray(array_rows, array_cols, fault_map=sparse_map)
    plan = best_bypass_plan(sparse_map)
    slowdown = bypass_slowdown(model, sparse_array, bundle.input_shape)
    print(f"  at 1% faulty PEs: {plan.surviving_pe_fraction:.0%} of PEs usable, "
          f"latency {slowdown:.2f}x vs FAP's 1.00x")

    # ------------------------------------------------------------------ timing & energy
    timing = estimate_model_timing(model, array, bundle.input_shape, batch_size=1)
    energy = estimate_model_energy(model, array, bundle.input_shape, batch_size=1)
    print("\nper-inference cost model (full array):")
    print(f"  cycles: {timing.total_cycles:,}  latency: {timing.latency_ms:.3f} ms  "
          f"utilization: {timing.utilization:.1%}")
    print(f"  energy: {energy.total_nj / 1e3:.1f} uJ")


if __name__ == "__main__":
    main()
