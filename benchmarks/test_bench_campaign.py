"""Benchmarks of the campaign engine: serial vs parallel throughput.

The campaign engine shards per-chip fault-aware retraining across socket
worker processes.  These benchmarks retrain a slice of the fast-preset chip
population under a fixed budget once in-process and once on forked local
workers, record chips/second for both, and assert the paper's invariant that
parallelism must not change results: serial and parallel runs are
bit-identical.
"""

import multiprocessing

import pytest

from bench_utils import run_gated
from repro.campaign import CampaignEngine, SupervisorConfig, run_strategy_sweep
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy

BUDGET = 0.25
PARALLEL_JOBS = max(2, min(4, multiprocessing.cpu_count()))


@pytest.fixture(scope="module")
def bench_population(fast_population):
    """A slice of the shared population (enough work to amortize worker startup)."""
    return ChipPopulation(fast_population.chips[:8])


def _record_throughput(benchmark, engine):
    report = engine.last_report
    benchmark.extra_info["jobs"] = report.jobs
    benchmark.extra_info["chips"] = report.total_chips
    benchmark.extra_info["chips_per_second"] = round(report.chips_per_second, 3)
    print(f"\ncampaign throughput: {report.describe()} "
          f"({report.chips_per_second:.2f} chips/s)")


def test_bench_campaign_serial(benchmark, fast_context, bench_population):
    engine = CampaignEngine(fast_context, jobs=1)
    campaign = run_gated(benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    assert campaign.num_chips == len(bench_population)
    assert campaign.average_epochs == pytest.approx(BUDGET, rel=0.05)


def test_bench_campaign_parallel_matches_serial(benchmark, fast_context, bench_population):
    serial = CampaignEngine(fast_context, jobs=1).run(bench_population, FixedEpochPolicy(BUDGET))
    engine = CampaignEngine(fast_context, jobs=PARALLEL_JOBS)
    campaign = run_gated(benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    # Sharding must be invisible in the results: bit-identical to serial.
    assert campaign.results == serial.results


FAT_BATCH = 6


def test_bench_campaign_batched_jobs1(benchmark, fast_context, fast_population):
    """Fixed-budget campaign throughput at --jobs 1 x --fat-batch 6.

    The baseline of the --jobs scaling pair below: the full fast-preset
    population (24 chips -> 4 stacked chunks) executes inline in one process.
    """
    engine = CampaignEngine(fast_context, jobs=1, fat_batch=FAT_BATCH)
    campaign = run_gated(benchmark, engine.run, fast_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    assert campaign.num_chips == len(fast_population)


def test_bench_campaign_batched_jobsN(benchmark, fast_context, fast_population):
    """Fixed-budget campaign throughput at --jobs N x --fat-batch 6.

    The planner hands whole stacked chunks to the socket workers, so the
    stacked-GEMM batching and the process-level parallelism compose; results
    must remain bit-identical to the inline batched run.
    """
    baseline = CampaignEngine(fast_context, jobs=1, fat_batch=FAT_BATCH).run(
        fast_population, FixedEpochPolicy(BUDGET)
    )
    engine = CampaignEngine(fast_context, jobs=PARALLEL_JOBS, fat_batch=FAT_BATCH)
    campaign = run_gated(benchmark, engine.run, fast_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    assert campaign.results == baseline.results


SWEEP_STRATEGIES = "fat,fap+fat,bypass"


def _record_sweep_throughput(benchmark, sweep):
    for name, report in sweep.reports.items():
        benchmark.extra_info[f"chips_per_second[{name}]"] = round(
            report.chips_per_second, 3
        )
        print(f"\nmitigation sweep [{name}]: {report.describe()} "
              f"({report.chips_per_second:.2f} chips/s)")


def test_bench_mitigation_sweep_jobs1(benchmark, fast_context, bench_population):
    """Multi-strategy mitigation sweep throughput at --jobs 1.

    The baseline of the sweep scaling pair: three strategies (classic FAT,
    FAP+FAT and bypass) over the same chips through one inline engine, with
    triage shared across the same-mask strategies.  Per-strategy chips/s
    lands in BENCH_campaign.json via extra_info.
    """
    sweep = run_gated(
        benchmark,
        run_strategy_sweep,
        fast_context,
        bench_population,
        FixedEpochPolicy(BUDGET),
        SWEEP_STRATEGIES,
        jobs=1,
        fat_batch=FAT_BATCH,
    )
    _record_sweep_throughput(benchmark, sweep)
    assert sweep.strategy_names == ["fat", "fap+fat", "bypass"]
    assert all(
        campaign.num_chips == len(bench_population)
        for campaign in sweep.campaigns.values()
    )


def test_bench_mitigation_sweep_jobsN(benchmark, fast_context, bench_population):
    """Multi-strategy sweep at --jobs N: workers execute whole stacked chunks
    per strategy and every strategy's rows stay bit-identical to --jobs 1."""
    baseline = run_strategy_sweep(
        fast_context,
        bench_population,
        FixedEpochPolicy(BUDGET),
        SWEEP_STRATEGIES,
        jobs=1,
        fat_batch=FAT_BATCH,
    )
    sweep = run_gated(
        benchmark,
        run_strategy_sweep,
        fast_context,
        bench_population,
        FixedEpochPolicy(BUDGET),
        SWEEP_STRATEGIES,
        jobs=PARALLEL_JOBS,
        fat_batch=FAT_BATCH,
    )
    _record_sweep_throughput(benchmark, sweep)
    for name in sweep.strategy_names:
        assert sweep.campaign(name).results == baseline.campaign(name).results


def test_bench_campaign_distributed_1worker(benchmark, fast_context, bench_population):
    """Fixed-budget campaign through the socket scheduler with ONE worker.

    The baseline of the distributed scaling pair: every chunk crosses the
    localhost TCP transport (claim/chunk/result frames plus the handshake's
    context build in the forked worker), so this pins the per-chunk transport
    overhead against the in-process runs above.
    """
    engine = CampaignEngine(
        fast_context, jobs=1, fat_batch=FAT_BATCH, listen=("127.0.0.1", 0)
    )
    try:
        campaign = run_gated(
            benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET)
        )
    finally:
        engine.close()
    benchmark.extra_info["socket_workers"] = 1
    _record_throughput(benchmark, engine)
    assert campaign.num_chips == len(bench_population)


def test_bench_campaign_distributed_2workers(benchmark, fast_context, bench_population):
    """Same campaign over TWO socket workers: the distributed scaling point.

    Work-stealing claims should split the chunks across both workers, and the
    headline invariant must hold — rows bit-identical to the serial in-process
    engine, no matter which worker executed which chunk.
    """
    serial = CampaignEngine(fast_context, jobs=1, fat_batch=FAT_BATCH).run(
        bench_population, FixedEpochPolicy(BUDGET)
    )
    engine = CampaignEngine(
        fast_context, jobs=2, fat_batch=FAT_BATCH, listen=("127.0.0.1", 0)
    )
    try:
        campaign = run_gated(
            benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET)
        )
    finally:
        engine.close()
    benchmark.extra_info["socket_workers"] = 2
    _record_throughput(benchmark, engine)
    assert campaign.results == serial.results


def test_bench_campaign_tracing_off(benchmark, fast_context, bench_population):
    """Baseline of the tracer-overhead pair: instrumented code, tracing off.

    Every span site in the engine/trainers costs one attribute check when the
    tracer is disabled; this benchmark (vs ``test_bench_campaign_tracing_on``)
    is the regression gate keeping the disabled path unmeasurable.
    """
    from repro.observability import metrics, trace

    trace.disable()
    metrics.enabled = False
    engine = CampaignEngine(fast_context, jobs=1, fat_batch=FAT_BATCH)
    campaign = run_gated(benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    assert campaign.num_chips == len(bench_population)


def test_bench_campaign_tracing_on(benchmark, fast_context, bench_population, tmp_path_factory):
    """Same campaign with span tracing + metrics enabled.

    Pins the enabled-tracer overhead (per-span JSONL writes + hot-path
    timers) and the invariant that tracing never changes results: the traced
    run is bit-identical to the untraced baseline.
    """
    from repro.observability import metrics, trace

    baseline = CampaignEngine(fast_context, jobs=1, fat_batch=FAT_BATCH).run(
        bench_population, FixedEpochPolicy(BUDGET)
    )
    trace_dir = tmp_path_factory.mktemp("campaign-trace")
    trace.enable(trace_dir)
    metrics.enabled = True
    try:
        engine = CampaignEngine(fast_context, jobs=1, fat_batch=FAT_BATCH)
        campaign = run_gated(
            benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET)
        )
    finally:
        trace.disable()
        metrics.enabled = False
        metrics.reset()
    _record_throughput(benchmark, engine)
    assert campaign.results == baseline.results
    assert (trace_dir / "trace.json").exists()


def test_bench_campaign_supervised_kill_recovery(benchmark, fast_context, bench_population):
    """Socket-worker dispatch with one injected worker SIGKILL mid-campaign.

    Pins the price of the recovery path — dropped-link detection, respawn,
    and one chunk re-execution — against ``test_bench_campaign_parallel``'s
    undisturbed dispatch, and asserts the headline guarantee: recovery is
    invisible in the results.
    """
    baseline = CampaignEngine(fast_context, jobs=PARALLEL_JOBS, fat_batch=FAT_BATCH).run(
        bench_population, FixedEpochPolicy(BUDGET)
    )
    engine = CampaignEngine(
        fast_context,
        jobs=PARALLEL_JOBS,
        fat_batch=FAT_BATCH,
        chaos="seed=3,kill=1",
        supervisor_config=SupervisorConfig(backoff_base=0.05),
    )
    campaign = run_gated(benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    assert campaign.results == baseline.results
    assert not campaign.failed_chips


def test_bench_campaign_resume_is_free(benchmark, fast_context, bench_population, tmp_path_factory):
    """A warm store makes re-running a campaign O(read) instead of O(retrain)."""
    store_base = tmp_path_factory.mktemp("campaign-store")
    CampaignEngine(fast_context, jobs=1, store_base=store_base).run(
        bench_population, FixedEpochPolicy(BUDGET)
    )
    engine = CampaignEngine(fast_context, jobs=1, store_base=store_base)
    campaign = run_gated(benchmark, engine.run, bench_population, FixedEpochPolicy(BUDGET))
    _record_throughput(benchmark, engine)
    assert engine.last_report.executed == 0
    assert engine.last_report.skipped == len(bench_population)
    assert campaign.num_chips == len(bench_population)
