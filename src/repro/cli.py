"""Command-line interface: ``repro-reduce``.

Runs the paper's experiments from the terminal and prints the tables/plots
the figures are built from, e.g.::

    repro-reduce fig2a    --preset fast
    repro-reduce fig3     --preset fast --chips 24 --jobs 4
    repro-reduce campaign --preset fast --chips 24 --jobs 4 --campaign-dir campaigns
    repro-reduce compare  --preset fast --strategies fat,fap,fam+fat,bypass --jobs 4
    repro-reduce campaign --preset fast --jobs 2 --fat-batch 4 --trace trace
    repro-reduce trace    trace
    repro-reduce all      --preset smoke --output results.json

The ``campaign`` command runs a single retraining campaign through the
parallel campaign engine: per-chip results are persisted to a resumable JSONL
store under ``--campaign-dir``, so re-running the same command skips every
chip that already completed.  ``fig3`` and ``all`` accept the same ``--jobs``
and ``--campaign-dir`` flags (defaulting to the serial, in-memory behaviour).

The ``compare`` command sweeps one chip population through several mitigation
strategies (``--strategies fat,fap,fap+fat,fam+fat,bypass,bypass+fat,none``)
and prints the per-strategy comparison table — accuracy recovered, epochs
spent, energy/timing overhead — plus the Pareto-optimal strategies.  Each
strategy's campaign is its own resumable store under ``--campaign-dir``.

Campaign execution is supervised (worker death/hang recovery, capped chunk
retries, poison-chunk quarantine): ``--max-chunk-retries`` and
``--chunk-timeout`` tune the fault-tolerance policy, ``--chaos SPEC`` (or the
``REPRO_CHAOS`` environment variable) enables the deterministic fault
injector, and ``repro-reduce verify-store [PATH]`` audits the integrity of
every campaign store under a directory (torn tails, checksum mismatches,
duplicate rows, corrupt manifests).

Campaigns also scale across hosts.  ``--listen [HOST:]PORT`` makes
``campaign``/``compare`` serve chunks to socket workers started elsewhere with
``repro-reduce worker --join HOST:PORT``; ``--workers HOST:PORT,...`` dials
the other way (workers started with ``worker --listen``).  ``--jobs N`` then
counts *local* socket workers forked next to the coordinator (``--jobs 0``
runs remote-only).  Distributed campaigns commit through the same
content-addressed store, so they resume and fingerprint exactly like local
ones, and remote workers ship their trace/metrics shards home so
``repro-reduce trace`` attributes time per ``host:pid``::

    repro-reduce worker   --join 192.0.2.10:7000 --cache-dir prestate  # on each host
    repro-reduce campaign --preset fast --listen 7000 --jobs 2 --chips 64

The CLI is a thin wrapper over :mod:`repro.experiments` and
:mod:`repro.campaign`; everything it does can also be driven from Python
(see ``examples/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign import (
    CHAOS_ENV_VAR,
    CampaignEngine,
    ChaosSpec,
    TransportError,
    WorkerRejected,
    discover_stores,
    parse_address,
    run_worker,
)
from repro.core.reporting import campaign_summary_table
from repro.experiments import (
    ExperimentContext,
    available_presets,
    build_population,
    get_preset,
    run_compare,
    run_fig2a,
    run_fig2b,
    run_fig3,
)
from repro.mitigation.strategy import available_strategies, parse_strategy, parse_strategy_list
from repro.utils.logging import set_verbosity

#: Compute backend of ``campaign``/``compare``: the stacked trainers replay
#: their captured eval graphs through ``numpy`` (bit-identical to eager).
BACKEND = "numpy"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-reduce",
        description="Reproduce the experiments of 'Reduce' (DATE 2023).",
    )
    parser.add_argument(
        "command",
        choices=[
            "fig2a", "fig2b", "fig3", "campaign", "compare", "all", "info",
            "trace", "verify-store", "worker",
        ],
        help="which experiment to run ('info' prints the preset summary; "
        "'trace' summarizes a recorded campaign trace; 'verify-store' audits "
        "the integrity of campaign stores under a directory; 'worker' joins "
        "a distributed campaign as a socket worker)",
    )
    parser.add_argument(
        "path",
        nargs="?",
        type=Path,
        default=None,
        help="trace directory, merged trace.json or shard to summarize "
        "(the 'trace' command; default: ./trace), or the store/base directory "
        "to audit (the 'verify-store' command; default: ./campaigns)",
    )
    parser.add_argument(
        "--preset",
        default="fast",
        choices=list(available_presets()),
        help="experiment scale (default: fast)",
    )
    parser.add_argument(
        "--chips", type=int, default=None, help="override the number of chips (fig3/campaign)"
    )
    parser.add_argument("--output", type=Path, default=None, help="write results as JSON to this path")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for per-chip retraining (default: 1 = serial, "
        "in-process; N > 1 forks N local socket workers). "
        "With --listen/--workers this counts *local* socket workers forked "
        "next to the coordinator; 0 runs the campaign on remote workers only",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="campaign/compare: serve chunks to socket workers that dial in "
        "with 'worker --join' (PORT 0 picks a free port, printed at startup); "
        "worker: wait for one coordinator started with --workers to dial in",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="HOST:PORT,...",
        help="campaign/compare: dial out to socket workers already waiting "
        "with 'worker --listen' (comma-separated addresses)",
    )
    parser.add_argument(
        "--join",
        default=None,
        metavar="HOST:PORT",
        help="worker: dial the campaign coordinator at HOST:PORT (retries "
        "until --join-timeout, so workers may start before the campaign)",
    )
    parser.add_argument(
        "--join-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="worker: how long to keep retrying the initial connection "
        "(default: 120)",
    )
    parser.add_argument(
        "--expect-preset",
        default=None,
        metavar="NAME",
        help="worker: refuse campaigns built from any other preset (default: "
        "accept whatever preset the coordinator announces)",
    )
    parser.add_argument(
        "--campaign-dir",
        type=Path,
        default=None,
        help="persist per-chip results to resumable stores under this directory "
        "(default for 'campaign': ./campaigns; fig3/all: in-memory only)",
    )
    parser.add_argument(
        "--policy",
        default="reduce-max",
        choices=["reduce-max", "reduce-mean", "fixed"],
        help="retraining policy for the 'campaign'/'compare' commands (default: reduce-max)",
    )
    parser.add_argument(
        "--strategy",
        default="fat",
        help="mitigation strategy for the 'campaign' command: a '+'-separated "
        f"spec such as {', '.join(available_strategies())} (default: fat)",
    )
    parser.add_argument(
        "--strategies",
        default="fat,fap,fam+fat,bypass",
        help="comma-separated mitigation strategies for the 'compare' command "
        "(default: fat,fap,fam+fat,bypass)",
    )
    parser.add_argument(
        "--fixed-epochs",
        type=float,
        default=0.5,
        help="epoch budget when --policy fixed (default: 0.5)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore previously recorded chip results in the campaign store",
    )
    parser.add_argument(
        "--fat-batch",
        type=int,
        default=None,
        help="max chips, grouped by their largest budget, retrained together in one "
        "stacked batched-FAT run; composes with --jobs N (each worker retrains a whole batch per "
        "dispatch). Default: 8; 1 retrains one chip per stacked run; results are "
        "bit-identical either way",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="DIR",
        help="record campaign spans to per-process shards under DIR and merge "
        "them into DIR/trace.json (Chrome trace-event format; see the "
        "'trace' command); also enables --metrics",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect hot-path metrics (GEMM/im2col timers, cache hit rates, "
        "fsync latency) and write a metrics.json snapshot next to the trace "
        "or campaign store",
    )
    parser.add_argument(
        "--max-chunk-retries",
        type=int,
        default=None,
        help="re-executions allowed per chunk after a worker death, hang or "
        "transient exception before the chunk is quarantined "
        "(campaign/compare; default: 2)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="fixed per-chunk deadline in seconds for hang detection "
        "(campaign/compare; default: adaptive from observed chunk durations)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for the campaign executor, e.g. "
        "'seed=7,kill=2,hang=1,exc=1,torn=1,hang_s=5' (campaign/compare; "
        "also honoured via the REPRO_CHAOS environment variable). Injected "
        "faults exercise the recovery paths without changing recorded values",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="on-disk cache of pre-trained model states (skips pre-training on reuse; "
        "also honoured via the REPRO_CACHE_DIR environment variable)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="increase log verbosity")
    return parser


def _result_payload(command: str, result: Any) -> Dict[str, Any]:
    if command == "fig2a":
        return {"figure": "2a", "rows": result.rows(), "clean_accuracy": result.clean_accuracy}
    if command == "fig2b":
        return {"figure": "2b", "rows": result.rows(), "clean_accuracy": result.clean_accuracy}
    if command == "fig3":
        return {"figure": "3", **result.to_dict()}
    raise ValueError(f"unknown command {command!r}")


def _run_command(command: str, context: ExperimentContext, args: argparse.Namespace) -> Any:
    if command == "fig2a":
        result = run_fig2a(context)
        print(result.render())
        return result
    if command == "fig2b":
        result = run_fig2b(context)
        print(result.render())
        return result
    if command == "fig3":
        result = run_fig3(
            context,
            num_chips=args.chips,
            jobs=args.jobs,
            campaign_dir=args.campaign_dir,
            resume=not args.no_resume,
            disk_cache_dir=args.cache_dir,
            fat_batch=args.fat_batch,
        )
        print(result.summary_table())
        print()
        print(result.render_scatter())
        print()
        print("Pareto-optimal policies:", ", ".join(result.pareto_policies()))
        return result
    raise ValueError(f"unknown command {command!r}")


def _run_campaign(context: ExperimentContext, args: argparse.Namespace) -> Dict[str, Any]:
    """The 'campaign' command: one policy through the parallel engine."""
    population = build_population(context, num_chips=args.chips)
    store_base = args.campaign_dir if args.campaign_dir is not None else Path("campaigns")
    print(f"[repro-reduce] compute backend: {BACKEND}")
    engine = CampaignEngine(
        context,
        jobs=args.jobs,
        store_base=store_base,
        resume=not args.no_resume,
        progress=True,
        disk_cache_dir=args.cache_dir,
        fat_batch=args.fat_batch,
        max_chunk_retries=args.max_chunk_retries,
        chunk_timeout=args.chunk_timeout,
        chaos=args.chaos,
        backend=BACKEND,
        listen=args.listen_address,
        workers=args.worker_addresses,
    )
    try:
        if engine.distributed and engine.listen_address is not None:
            host, port = engine.listen_address
            print(f"[repro-reduce] coordinator listening on {host}:{port} "
                  f"(workers join with: repro-reduce worker --join {host}:{port})")
        if args.policy == "fixed":
            result = engine.run_fixed(population, args.fixed_epochs, strategy=args.strategy)
        else:
            statistic = args.policy.split("-", 1)[1]
            result = engine.run_reduce(population, statistic=statistic, strategy=args.strategy)
        report = engine.last_report
    finally:
        engine.close()

    print(campaign_summary_table([result]))
    print()
    print(f"[repro-reduce] campaign {report.describe()}")
    if report.skipped:
        print(f"[repro-reduce] resumed: {report.skipped} chip(s) loaded from the store, "
              f"{report.executed} executed")
    if result.failed_chips:
        failed_ids = ", ".join(str(r["chip_id"]) for r in result.failed_chips)
        print(f"[repro-reduce] WARNING: {len(result.failed_chips)} chip(s) "
              f"quarantined after repeated failures: {failed_ids} "
              f"(see quarantine.jsonl in the store)")
    payload: Dict[str, Any] = {"figure": "campaign", **result.to_dict()}
    payload["strategy"] = parse_strategy(args.strategy).name
    payload["backend"] = BACKEND
    payload["report"] = {
        "policy": report.policy_name,
        "total_chips": report.total_chips,
        "executed": report.executed,
        "skipped": report.skipped,
        "failed": report.failed,
        "jobs": report.jobs,
        "elapsed_seconds": report.elapsed_seconds,
        "fingerprint": report.fingerprint,
        "store_dir": str(report.store_dir) if report.store_dir is not None else None,
    }
    return payload


def _run_compare(context: ExperimentContext, args: argparse.Namespace) -> Dict[str, Any]:
    """The 'compare' command: one population through K mitigation strategies."""
    store_base = args.campaign_dir if args.campaign_dir is not None else Path("campaigns")
    print(f"[repro-reduce] compute backend: {BACKEND}")
    result = run_compare(
        context,
        args.strategies,
        num_chips=args.chips,
        policy_name=args.policy,
        fixed_epochs=args.fixed_epochs,
        jobs=args.jobs,
        campaign_dir=store_base,
        resume=not args.no_resume,
        progress=True,
        fat_batch=args.fat_batch,
        disk_cache_dir=args.cache_dir,
        max_chunk_retries=args.max_chunk_retries,
        chunk_timeout=args.chunk_timeout,
        chaos=args.chaos,
        backend=BACKEND,
        listen=args.listen_address,
        workers=args.worker_addresses,
    )
    print(result.table())
    print()
    print("Pareto-optimal strategies:", ", ".join(result.pareto_strategies()))
    reports = result.sweep.reports
    for name in result.strategy_names:
        print(f"[repro-reduce] {name}: {reports[name].describe()}")
    payload: Dict[str, Any] = {"figure": "compare", **result.to_dict()}
    payload["reports"] = {
        name: {
            "executed": report.executed,
            "skipped": report.skipped,
            "elapsed_seconds": report.elapsed_seconds,
            "fingerprint": report.fingerprint,
            "store_dir": str(report.store_dir) if report.store_dir is not None else None,
        }
        for name, report in reports.items()
    }
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    set_verbosity(args.verbose)
    # Engine-constructor (and population) arguments are validated here with
    # parser.error — a clean usage message and exit code 2 — instead of
    # surfacing as CampaignEngine/ChipPopulation tracebacks after the
    # expensive context build.
    distributed = args.listen is not None or args.workers is not None
    if args.command == "worker":
        if (args.join is None) == (args.listen is None):
            parser.error("'worker' requires exactly one of --join or --listen")
        if args.workers is not None:
            parser.error("--workers is only valid with 'campaign' and 'compare'")
    else:
        if args.join is not None or args.expect_preset is not None:
            parser.error("--join/--expect-preset are only valid with the 'worker' command")
        if distributed and args.command not in ("campaign", "compare"):
            parser.error(
                "--listen/--workers are only valid with 'campaign', 'compare' "
                "and 'worker'"
            )
    if distributed and args.command in ("campaign", "compare"):
        if args.jobs < 0:
            parser.error("--jobs must be >= 0 with --listen/--workers "
                         "(0 = remote socket workers only)")
    elif args.command != "worker" and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.join_timeout <= 0:
        parser.error("--join-timeout must be positive")
    listen_address: Optional[Tuple[str, int]] = None
    worker_addresses: Optional[List[Tuple[str, int]]] = None
    join_address: Optional[Tuple[str, int]] = None
    try:
        if args.listen is not None:
            listen_address = parse_address(args.listen)
        if args.join is not None:
            join_address = parse_address(args.join)
        if args.workers is not None:
            worker_addresses = [
                parse_address(spec)
                for spec in str(args.workers).split(",")
                if spec.strip()
            ]
            if not worker_addresses:
                parser.error("--workers requires at least one HOST:PORT")
    except ValueError as error:
        parser.error(f"invalid address: {error}")
    args.listen_address = listen_address
    args.worker_addresses = worker_addresses
    if args.fat_batch is not None and args.fat_batch < 1:
        parser.error("--fat-batch must be >= 1")
    if args.chips is not None and args.chips < 1:
        parser.error("--chips must be >= 1")
    if args.fixed_epochs < 0:
        parser.error("--fixed-epochs must be non-negative")
    if args.max_chunk_retries is not None and args.max_chunk_retries < 0:
        parser.error("--max-chunk-retries must be >= 0")
    if args.chunk_timeout is not None and args.chunk_timeout <= 0:
        parser.error("--chunk-timeout must be positive")
    if args.chaos is None:
        args.chaos = os.environ.get(CHAOS_ENV_VAR) or None
    if args.chaos is not None:
        try:
            ChaosSpec.parse(args.chaos)
        except ValueError as error:
            parser.error(f"invalid --chaos spec: {error}")
    try:
        parse_strategy(args.strategy)
        parse_strategy_list(args.strategies)
    except ValueError as error:
        parser.error(str(error))
    if args.path is not None and args.command not in ("trace", "verify-store"):
        parser.error(f"positional path is only valid with the 'trace' and "
                     f"'verify-store' commands, not {args.command!r}")

    if args.command == "worker":
        # Socket worker: the coordinator announces the preset, so no local
        # context build (the worker pre-trains from the announced preset,
        # hitting --cache-dir when the coordinator host shipped one over).
        where = (
            f"joining {args.join}" if join_address is not None
            else f"listening on {args.listen}"
        )
        print(f"[repro-reduce] socket worker {where} (pid {os.getpid()})")
        try:
            executed = run_worker(
                join=join_address,
                listen=listen_address,
                cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
                expect_preset=args.expect_preset,
                connect_timeout=args.join_timeout,
            )
        except WorkerRejected as error:
            print(f"[repro-reduce] worker rejected by coordinator: {error}",
                  file=sys.stderr)
            return 1
        except TransportError as error:
            print(f"[repro-reduce] worker transport failure: {error}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("[repro-reduce] worker interrupted", file=sys.stderr)
            return 130
        print(f"[repro-reduce] worker done: {executed} chunk(s) executed")
        return 0

    if args.command == "verify-store":
        # Pure store auditing: no context build needed.
        base = args.path if args.path is not None else Path("campaigns")
        stores = discover_stores(base)
        if not stores:
            print(f"[repro-reduce] no campaign stores found under {base}")
            return 1
        clean = True
        for store in stores:
            report = store.verify()
            clean = clean and report.is_clean
            print(report.describe())
        print(
            f"[repro-reduce] verified {len(stores)} store(s): "
            f"{'all clean' if clean else 'INTEGRITY ISSUES FOUND'}"
        )
        return 0 if clean else 1

    if args.command == "trace":
        # Pure post-processing of a recorded trace: no context build needed.
        from repro.observability import load_trace, render_trace_summary, summarize_trace

        trace_path = args.path if args.path is not None else Path("trace")
        try:
            events = load_trace(trace_path)
        except (OSError, ValueError) as error:
            parser.error(str(error))
        if not events:
            print(f"[repro-reduce] no trace events found at {trace_path}")
            return 1
        try:
            print(render_trace_summary(summarize_trace(events)))
        except BrokenPipeError:
            # `repro-reduce trace | head` closes stdout early; that is not
            # an error worth a traceback.
            sys.stderr.close()
        return 0

    if args.trace is not None:
        from repro.observability import metrics, trace

        trace.enable(args.trace)
        metrics.enabled = True
        print(f"[repro-reduce] tracing enabled: shards + merged trace.json under {args.trace}")
    elif args.metrics:
        from repro.observability import metrics

        metrics.enabled = True

    preset = get_preset(args.preset)
    if args.command == "info":
        print(f"preset: {preset.name}")
        print(f"  model: {preset.model.name} {preset.model.kwargs}")
        print(f"  dataset: {preset.dataset}")
        print(f"  array: {preset.array_rows}x{preset.array_cols}")
        print(f"  resilience grid: rates={list(preset.fault_rates)} "
              f"checkpoints={list(preset.epoch_checkpoints)} trials={preset.trials_per_rate}")
        print(f"  chips: {preset.num_chips} fault rates in {preset.chip_fault_rate_range}")
        print(f"  constraint: clean accuracy - {preset.constraint_drop:.1%}")
        return 0

    print(f"[repro-reduce] building context for preset {preset.name!r} "
          f"(pre-training {preset.model.name}; this runs once per session)...")
    context = ExperimentContext.from_preset(preset, disk_cache_dir=args.cache_dir)
    print(f"[repro-reduce] clean accuracy: {context.clean_accuracy:.3f}, "
          f"accuracy constraint: {context.target_accuracy():.3f}")

    payloads = []
    if args.command == "campaign":
        payloads.append(_run_campaign(context, args))
    elif args.command == "compare":
        payloads.append(_run_compare(context, args))
    else:
        commands = ["fig2a", "fig2b", "fig3"] if args.command == "all" else [args.command]
        for command in commands:
            print(f"\n=== {command} ===")
            result = _run_command(command, context, args)
            payloads.append(_result_payload(command, result))

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        with args.output.open("w", encoding="utf-8") as handle:
            json.dump(payloads if len(payloads) > 1 else payloads[0], handle, indent=2)
        print(f"\n[repro-reduce] wrote results to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
