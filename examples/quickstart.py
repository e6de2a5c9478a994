#!/usr/bin/env python3
"""Quickstart: run the complete Reduce flow on a small synthetic workload.

This example walks through the three steps of the framework (Fig. 1 of the
paper) end to end:

1. pre-train a DNN and analyse its resilience to permanent faults,
2. select a per-chip retraining amount from the resilience profile,
3. retrain the DNN for each faulty chip and compare against the fixed-policy
   baseline.

Run it with::

    python examples/quickstart.py            # ~1 minute on a laptop CPU
    python examples/quickstart.py --smoke    # a few seconds (tiny models)
"""

from __future__ import annotations

import argparse

from repro.campaign import CampaignEngine
from repro.core import ChipPopulation, campaign_summary_table
from repro.experiments import ExperimentContext, fast_preset, smoke_preset
from repro.utils.rng import derive_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="use the tiny smoke preset")
    parser.add_argument("--chips", type=int, default=12, help="number of faulty chips to retrain for")
    args = parser.parse_args()

    preset = smoke_preset() if args.smoke else fast_preset()
    print(f"== Reduce quickstart (preset: {preset.name}) ==")
    print(f"model: {preset.model.name}, array: {preset.array_rows}x{preset.array_cols}")

    # ------------------------------------------------------------------ setup
    # The experiment context bundles the Fig. 1 inputs: a pre-trained DNN, a
    # dataset and the systolic-array description.
    print("\n[setup] generating data and pre-training the model...")
    context = ExperimentContext.from_preset(preset)
    print(f"[setup] clean accuracy: {context.clean_accuracy:.3f}")
    print(f"[setup] accuracy constraint: {context.target_accuracy():.3f} "
          f"({preset.constraint_drop:.0%} below clean)")

    # ---------------------------------------------------------------- step 1
    print("\n[step 1] resilience analysis (fault-injection + progressive retraining)...")
    profile = context.resilience_profile()
    print(f"[step 1] analysed fault rates: {profile.fault_rates.tolist()}")
    print(f"[step 1] retraining checkpoints: {profile.epoch_checkpoints.tolist()}")
    no_retraining = profile.accuracy_vs_fault_rate(0.0, "mean")
    full_retraining = profile.accuracy_vs_fault_rate(profile.max_epochs, "mean")
    for rate, before, after in zip(profile.fault_rates, no_retraining, full_retraining):
        print(f"    fault rate {rate:.2f}: accuracy {before:.3f} (no retraining) "
              f"-> {after:.3f} ({profile.max_epochs:g} epochs)")

    # ---------------------------------------------------------------- step 2
    print("\n[step 2] resilience-driven retraining-amount selection...")
    chips = ChipPopulation.generate(
        count=args.chips,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=preset.chip_fault_rate_range,
        seed=derive_seed(preset.seed, "quickstart-chips"),
    )
    amounts = context.framework().select_retraining_amounts(chips)
    for chip in chips:
        print(f"    {chip.chip_id}: fault rate {chip.fault_rate:.3f} -> "
              f"{amounts[chip.chip_id]:.2f} retraining epochs")

    # ---------------------------------------------------------------- step 3
    print("\n[step 3] fault-aware retraining per chip (Reduce vs fixed policy)...")
    # The campaign engine triages every chip once, stacks chips of equal
    # budget, and retrains each stack as one batched run.
    engine = CampaignEngine(context)
    reduce_campaign = engine.run_reduce(chips, "max")
    fixed_campaign = engine.run_fixed(chips, epochs=max(preset.fixed_policy_epochs))

    print()
    print(campaign_summary_table([reduce_campaign, fixed_campaign]))
    saving = 1.0 - reduce_campaign.total_epochs / max(fixed_campaign.total_epochs, 1e-9)
    print(f"\nReduce meets the constraint for {reduce_campaign.percent_meeting_constraint:.0f}% "
          f"of chips while spending {saving:.0%} less total retraining than the "
          f"fixed {max(preset.fixed_policy_epochs):g}-epoch policy.")


if __name__ == "__main__":
    main()
