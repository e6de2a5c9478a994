"""Benchmarks regenerating Fig. 3a-e: per-chip retraining campaigns per policy.

Each benchmark retrains the pre-trained model for every chip in the shared
population under one retraining policy and asserts the per-policy claims made
in the paper:

* Fig. 3a (``reduce-max``): nearly all chips meet the accuracy constraint;
* Fig. 3b (``reduce-mean``): cheaper but meets the constraint less often
  (the mean statistic under-trains);
* Fig. 3c-e (fixed budgets): the fraction of chips meeting the constraint
  grows with the fixed budget;
* the headline claim: ``reduce-max`` meets the constraint at least as often
  as the largest fixed budget while spending fewer total epochs.
"""

import numpy as np
import pytest

from bench_utils import run_once
from repro.campaign import CampaignEngine
from repro.core.reporting import campaign_scatter_csv
from repro.experiments import run_fig3


@pytest.fixture(scope="module")
def engine(fast_context, fast_profile):
    """One in-process engine over the fast context (Step 1 already cached)."""
    return CampaignEngine(fast_context)


def _print_campaign(campaign):
    print(f"\npolicy={campaign.policy_name}  target={campaign.target_accuracy:.3f}")
    print(f"  avg epochs/chip = {campaign.average_epochs:.4f}")
    print(f"  % meeting constraint = {campaign.percent_meeting_constraint:.1f}")
    print(campaign_scatter_csv(campaign))


def test_fig3a_reduce_max_policy(benchmark, engine, fast_population):
    campaign = run_once(benchmark, engine.run_reduce, fast_population, statistic="max")
    _print_campaign(campaign)
    # The max statistic is chosen for confidence: the large majority of chips
    # must meet the constraint.
    assert campaign.fraction_meeting_constraint >= 0.75
    # Low-fault-rate chips must be nearly free: the policy adapts per chip.
    cheapest = campaign.epochs().min()
    most_expensive = campaign.epochs().max()
    assert cheapest <= 0.1
    assert most_expensive > cheapest


def test_fig3b_reduce_mean_policy(benchmark, engine, fast_population):
    reduce_max = engine.run_reduce(fast_population, statistic="max")
    campaign = run_once(benchmark, engine.run_reduce, fast_population, statistic="mean")
    _print_campaign(campaign)
    # The mean statistic spends no more than the max statistic on average...
    assert campaign.average_epochs <= reduce_max.average_epochs + 1e-9
    # ...and (as the paper observes) under-trains: it cannot meaningfully beat
    # reduce-max on the fraction of chips meeting the constraint (tolerance of
    # one chip to absorb training noise).
    one_chip = 1.0 / len(fast_population)
    assert campaign.fraction_meeting_constraint <= reduce_max.fraction_meeting_constraint + one_chip + 1e-9


@pytest.mark.parametrize("budget_index", [0, 1, 2], ids=["fig3c-low", "fig3d-mid", "fig3e-high"])
def test_fig3cde_fixed_policies(benchmark, engine, fast_context, fast_population, budget_index):
    budget = fast_context.preset.fixed_policy_epochs[budget_index]
    campaign = run_once(benchmark, engine.run_fixed, fast_population, budget)
    _print_campaign(campaign)
    assert campaign.average_epochs == pytest.approx(budget, rel=0.05)
    # Every chip gets exactly the same budget under the fixed policy.
    assert np.allclose(campaign.epochs(), budget, rtol=0.05)


def test_fig3_fixed_policy_satisfaction_grows_with_budget(benchmark, engine, fast_context, fast_population):
    """Summary property of Fig. 3c-e: more fixed retraining -> more chips pass."""

    def run_all_fixed():
        return [
            engine.run_fixed(fast_population, budget)
            for budget in fast_context.preset.fixed_policy_epochs
        ]

    campaigns = run_once(benchmark, run_all_fixed)
    fractions = [campaign.fraction_meeting_constraint for campaign in campaigns]
    print("\nfixed budgets:", list(fast_context.preset.fixed_policy_epochs))
    print("fraction meeting constraint:", [round(fraction, 3) for fraction in fractions])
    assert fractions == sorted(fractions)
    assert fractions[-1] > fractions[0]


def test_fig3_reduce_max_meets_constraint_with_fewer_epochs(
    engine, fast_context, fast_population
):
    """The paper's headline claim, pinned on the default fast population."""
    largest = max(fast_context.preset.fixed_policy_epochs)
    reduce_max = engine.run_reduce(fast_population, statistic="max")
    fixed = engine.run_fixed(fast_population, largest)
    print(
        f"\nreduce-max: {reduce_max.percent_meeting_constraint:.1f}% at "
        f"{reduce_max.total_epochs:.2f} epochs; fixed-{largest}ep: "
        f"{fixed.percent_meeting_constraint:.1f}% at {fixed.total_epochs:.2f} epochs"
    )
    assert reduce_max.fraction_meeting_constraint >= fixed.fraction_meeting_constraint
    assert reduce_max.total_epochs < fixed.total_epochs
    # The same claim on run_fig3's campaigns, which read every policy's
    # budgets off one shared Step-3 pass per chip: same rows, same claim.
    fig3 = run_fig3(fast_context, population=fast_population)
    shared_max = fig3.reduce_max
    shared_fixed = fig3.campaign(fixed.policy_name)
    assert shared_max.results == reduce_max.results
    assert shared_fixed.results == fixed.results
    assert shared_max.fraction_meeting_constraint >= shared_fixed.fraction_meeting_constraint
    assert shared_max.total_epochs < shared_fixed.total_epochs
