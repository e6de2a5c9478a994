"""One benchmark workload in a fresh process.

Makes the public calls the named ``repro-reduce`` command makes, with the CLI
defaults (``numpy`` backend, prefetch on, 128 MB lowering cache, ``fat_batch``
8, no pre-train disk cache), except that the chip population is generated
here from ``--seed`` and handed to the public API.  Writes the committed chip
rows and phase timestamps to ``--out``; with ``--spans`` it also installs the
layer wrappers of :mod:`spans` and writes the recorded spans there.

    python3 perfbench/workload.py --workload fleet-fat --seed 1 \
        --out result.json --campaign-dir runs/campaigns --spawned-at 12.5

``run.py`` starts this script with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: The ``--preset`` of every workload.
PRESET = "fast"

#: The ``repro-reduce`` invocation each workload reproduces.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    # repro-reduce fig3 --preset fast
    "paper-fig3": {"command": "fig3", "chips": 24},
    # repro-reduce campaign --preset fast --policy fixed --fixed-epochs 1.0 --chips 192
    "fleet-fat": {"command": "campaign", "chips": 192, "fixed_epochs": 1.0},
    # repro-reduce compare --preset fast --policy fixed --fixed-epochs 0.5
    #     --strategies fat,fap+fat,fam+fat,bypass --chips 128 --jobs 2
    "sweep-jobs2": {"command": "compare", "chips": 128, "fixed_epochs": 0.5,
                    "strategies": "fat,fap+fat,fam+fat,bypass", "jobs": 2},
}


def _rows(campaigns: Dict[str, Any]) -> List[List[Any]]:
    """Committed chip rows of every campaign, in commit order."""
    return [
        [name, r.chip_id, r.strategy, r.epochs_allocated, r.epochs_trained,
         r.accuracy_before, r.accuracy_after, bool(r.meets_constraint)]
        for name, campaign in campaigns.items()
        for r in campaign.results
    ]


def make_population(preset, chips: int, seed: int, workload: str):
    """The seeded chip population of one workload.

    Fault rates are stratified over the preset's range — one uniform draw in
    each of ``chips`` equal slices, shuffled — so every seed covers the range
    evenly and the total work differs little between seeds; the seed picks
    the rates within their slices, their order and every faulty PE.
    """
    import numpy as np

    from repro.core.chips import ChipPopulation
    from repro.utils.rng import derive_seed

    rng = np.random.default_rng(derive_seed(seed, "perfbench", workload, "rates"))
    low, high = preset.chip_fault_rate_range
    rates = low + (high - low) * (np.arange(chips) + rng.random(chips)) / chips
    rng.shuffle(rates)
    return ChipPopulation.generate(
        count=chips, rows=preset.array_rows, cols=preset.array_cols,
        fault_rates=rates.tolist(),
        seed=derive_seed(seed, "perfbench", workload, "fault-maps"),
    )


def _run_fig3(context, population) -> Dict[str, Any]:
    from repro.experiments import run_fig3

    result = run_fig3(context, population=population, jobs=1, campaign_dir=None,
                      resume=True, disk_cache_dir=None, fat_batch=None)
    print(result.summary_table())
    print()
    print(result.render_scatter())
    print()
    print("Pareto-optimal policies:", ", ".join(result.pareto_policies()))
    return result.campaigns


def _run_campaign(context, population, spec, campaign_dir: Path) -> Dict[str, Any]:
    from repro.backends import get_backend
    from repro.campaign import CampaignEngine
    from repro.core.reporting import campaign_summary_table

    print(f"[repro-reduce] compute backend: {get_backend('numpy').describe()}")
    engine = CampaignEngine(
        context, jobs=1, store_base=campaign_dir, resume=True, progress=True,
        disk_cache_dir=None, fat_batch=None, max_chunk_retries=None,
        chunk_timeout=None, chaos=None, backend="numpy", prefetch=True,
        lowering_cache_mb=None, listen=None, workers=None,
    )
    try:
        result = engine.run_fixed(population, spec["fixed_epochs"], strategy="fat")
        report = engine.last_report
    finally:
        engine.close()
    print(campaign_summary_table([result]))
    print(f"[repro-reduce] campaign {report.describe()}")
    return {"fat": result}


def _run_compare(context, population, spec, campaign_dir: Path) -> Dict[str, Any]:
    from repro.backends import get_backend
    from repro.experiments import run_compare

    print(f"[repro-reduce] compute backend: {get_backend('numpy').describe()}")
    result = run_compare(
        context, spec["strategies"], population=population, policy_name="fixed",
        fixed_epochs=spec["fixed_epochs"], jobs=spec["jobs"],
        campaign_dir=campaign_dir, resume=True, progress=True, fat_batch=None,
        disk_cache_dir=None, max_chunk_retries=None, chunk_timeout=None,
        chaos=None, backend="numpy", prefetch=True, lowering_cache_mb=None,
        listen=None, workers=None,
    )
    print(result.table())
    print("Pareto-optimal strategies:", ", ".join(result.pareto_strategies()))
    result.to_dict()  # the CLI builds this payload for --output
    return dict(result.sweep.campaigns)


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chips", type=int, default=None)
    parser.add_argument("--campaign-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    chips = args.chips if args.chips is not None else spec["chips"]

    recorder = None
    if args.spans is not None:
        import spans

        recorder = spans.SpanRecorder()

    def phase(name: str, start: Optional[float] = None):
        if recorder is None:
            return contextlib.nullcontext()
        return recorder.span(name, start)

    with phase("bench.setup", args.spawned_at):
        import repro.cli  # noqa: F401  (the CLI's import graph)
        from repro.experiments import ExperimentContext, get_preset
        from repro.utils.logging import set_verbosity

        set_verbosity(0)
        if recorder is not None:
            spans.install(recorder)
        preset = get_preset(PRESET)
        context = ExperimentContext.from_preset(preset, disk_cache_dir=None)
    context_ready = time.monotonic()

    with phase("bench.population"):
        population = make_population(preset, chips, args.seed, args.workload)

    with phase("bench.command"):
        if spec["command"] == "fig3":
            campaigns = _run_fig3(context, population)
        elif spec["command"] == "campaign":
            campaigns = _run_campaign(context, population, spec, args.campaign_dir)
        else:
            campaigns = _run_compare(context, population, spec, args.campaign_dir)

    with phase("bench.finalize"):
        payload = {
            "context_ready": context_ready,
            "arms": len(campaigns),
            "target_accuracy": context.target_accuracy(),
            "rows": _rows(campaigns),
            "failed_chips": sum(len(c.failed_chips) for c in campaigns.values()),
            "readout": {name: {"total_epochs": c.total_epochs,
                               "frac_meeting": c.fraction_meeting_constraint}
                        for name, c in campaigns.items()},
        }
        with args.out.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        if recorder is not None:
            spans.record_probes(recorder)
    if recorder is not None:
        spans.write_dump(recorder, str(args.spans))


if __name__ == "__main__":
    main()
