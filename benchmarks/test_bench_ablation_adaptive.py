"""Ablation A4: adaptive incremental retraining vs Reduce's profile-driven selection.

The adaptive baseline retrains each chip in small increments and stops as soon
as the accuracy constraint is met.  It needs no resilience analysis, but every
increment of every chip costs a full test-set evaluation, and that per-chip
loop cannot be amortised across chips (or across future production batches)
the way Reduce's one-off resilience profile can.  This benchmark quantifies
both sides: retraining epochs spent, constraint satisfaction, and the number
of per-chip evaluations.
"""

import pytest

from bench_utils import run_once
from repro.campaign import CampaignEngine
from repro.core import run_adaptive_campaign
from repro.core.reporting import campaign_summary_table


@pytest.fixture(scope="module")
def framework(fast_context, fast_profile):
    framework = fast_context.framework()
    framework.set_profile(fast_profile)
    return framework


def test_ablation_adaptive_vs_reduce(benchmark, framework, fast_context, fast_population):
    reduce_campaign = CampaignEngine(fast_context).run_reduce(fast_population, "max")

    adaptive = run_once(
        benchmark,
        run_adaptive_campaign,
        framework,
        fast_population,
        increments=list(fast_context.preset.epoch_checkpoints),
    )
    adaptive_campaign = adaptive.campaign

    print("\nAblation A4: Reduce (profile-driven) vs adaptive incremental retraining")
    print(campaign_summary_table([reduce_campaign, adaptive_campaign]))
    print(f"adaptive per-chip test-set evaluations: total={adaptive.total_evaluations}, "
          f"avg={adaptive.average_evaluations:.1f} per chip")
    print("reduce per-chip test-set evaluations during step 3: 1 per chip "
          "(selection reads the pre-computed resilience profile)")

    # Both approaches must satisfy the constraint for the large majority of chips.
    assert adaptive_campaign.fraction_meeting_constraint >= 0.75
    assert reduce_campaign.fraction_meeting_constraint >= 0.75
    # The adaptive loop pays for its lack of a profile with repeated per-chip
    # evaluations: strictly more than one evaluation per chip on average.
    assert adaptive.average_evaluations > 1.0
    # Reduce's total retraining stays within a reasonable factor of the
    # adaptive oracle-style loop (it cannot be cheaper on every chip since it
    # uses the conservative max statistic, but it must not blow up).
    assert reduce_campaign.total_epochs <= 3.0 * max(adaptive_campaign.total_epochs, 1e-9) + 1.0
