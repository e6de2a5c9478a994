"""Sharded, resumable campaign engine (the campaign planner/executor).

The engine runs Step 3 over a chip population as a dispatchable, resumable
workload, in two stages:

* **Plan.** Step 2 (policy resolution) runs once in the parent process and
  is frozen into picklable :class:`~repro.campaign.jobs.ChipJob` units, one
  per chip and policy; the pending jobs of every policy in the run are then
  merged per chip and partitioned into *chunks* of at most ``fat_batch``
  chips that share their largest budget
  (:func:`~repro.campaign.jobs.plan_job_chunks`).  A chunk trains once, to
  that budget, and reads each job's smaller budget off the same pass.
* **Execute.**  Whole chunks — not single chips — are the unit of
  dispatch.  ``jobs == 1`` executes them in this process.  ``jobs > 1``
  forks that many local socket workers onto a private loopback
  :class:`~repro.campaign.scheduler.CampaignCoordinator` that lives for one
  ``run()``; ``listen=``/``workers=`` make the engine distributed, with an
  engine-lifetime coordinator that remote workers join
  (``repro-reduce worker --join HOST:PORT``) next to ``jobs`` local ones.
  There is one multi-process executor and one recovery story.  Every chunk
  is one stacked :class:`~repro.accelerator.batched.BatchedFaultTrainer`
  run through :func:`~repro.campaign.jobs.execute_job_chunk`, so
  process-level parallelism and stacked-GEMM batching compose: ``--jobs N``
  workers each retrain one planned chunk of at most ``--fat-batch`` chips
  per dispatch.  Every run sets the compute
  backend on the context's :class:`~repro.accelerator.batched.EvalPipeline`,
  and socket workers take it from the welcome frame, so jobs carry none.

Chunks are pulled via work-stealing claims, results commit through the same
content-addressed store on the coordinator host, and the population-shared
retraining seed makes every chunk bit-identical no matter which process or
host executed it — a distributed campaign resumes and fingerprints exactly
like a local one.

Execution is fault-tolerant, and both executors share one state machine
(:class:`~repro.campaign.supervisor.ChunkLedger`): a chunk that raises, whose
worker dies (OOM kill, crash) or whose worker outlives the per-chunk deadline
is retried with capped retries and exponential backoff, and a chunk that
keeps failing is quarantined — the campaign completes every other chip and
reports the casualties in ``CampaignResult.failed_chips`` (and the store's
``quarantine.jsonl``) instead of crashing.  Lost local workers are replaced.
Commits go through a :class:`~repro.campaign.supervisor.ChunkCommitSequencer`,
so retries never reorder ``results.jsonl``.  A deterministic chaos harness
(:mod:`repro.campaign.chaos`, ``chaos=``/``--chaos``) injects worker SIGKILLs,
hangs, transient exceptions and torn trailing writes at seeded points so
every one of those recovery paths is exercised in tests.

With a store base directory the engine persists every finished chunk to a
content-addressed JSONL store (one fsync per chunk — the group-result
protocol) and skips already-completed chips on restart, so a killed campaign
loses at most the chunks in flight and resumes where it left off.

Determinism: the retraining seed is a pure function of the campaign
configuration and is shared by every chip (see
``ReduceFramework._fat_training_config``) — population-shared seeding is
what makes a chunk executed in any worker bit-identical to per-chip serial
execution.  Every execution restores the same pre-trained weights first and
results are re-ordered to population order, so serial, parallel, batched and
resumed runs produce bit-identical results; a resumed campaign re-plans only
the remaining jobs, and any partition of the same jobs yields the same
per-chip values.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.backends import resolve_backend
from repro.campaign.chaos import ChaosSchedule, ChaosSpec, resolve_chaos
from repro.campaign.jobs import (
    DEFAULT_FAT_BATCH,
    ChipJob,
    build_jobs,
    execute_job_chunk,
    plan_job_chunks,
)
from repro.campaign.scheduler import CampaignCoordinator, SchedulerConfig
from repro.campaign.store import CampaignStore, campaign_fingerprint
from repro.campaign.supervisor import (
    ChunkCommitSequencer,
    ChunkFailure,
    ChunkLedger,
    SupervisorConfig,
)
from repro.core.chips import ChipPopulation
from repro.core.reduce import CampaignResult, ChipRetrainingResult
from repro.core.selection import FixedEpochPolicy, RetrainingPolicy
from repro.mitigation.strategy import StrategyLike, resolve_strategy
from repro.observability import (
    metrics,
    trace,
    write_chrome_trace,
    write_merged_metrics,
)
from repro.utils.logging import get_logger
from repro.utils.timing import Timer, format_duration

logger = get_logger("campaign.engine")

PathLike = Union[str, Path]


@dataclasses.dataclass
class _PolicyRun:
    """One policy's share of an engine run: its jobs, store and rows."""

    policy: RetrainingPolicy
    jobs: List[ChipJob]
    store: Optional[CampaignStore] = None
    fingerprint: Optional[str] = None
    known: Dict[str, ChipRetrainingResult] = dataclasses.field(default_factory=dict)
    pending: List[ChipJob] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class CampaignReport:
    """Bookkeeping of one engine run (what executed, what was resumed)."""

    policy_name: str
    total_chips: int
    executed: int
    skipped: int
    jobs: int
    elapsed_seconds: float
    fingerprint: Optional[str] = None
    store_dir: Optional[Path] = None
    failed: int = 0

    @property
    def chips_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf") if self.executed else 0.0
        return self.executed / self.elapsed_seconds

    def describe(self) -> str:
        parts = [
            f"policy={self.policy_name}",
            f"chips={self.total_chips}",
            f"executed={self.executed}",
            f"skipped={self.skipped}",
            f"jobs={self.jobs}",
            f"elapsed={format_duration(self.elapsed_seconds)}",
        ]
        if self.failed:
            parts.append(f"failed={self.failed}")
        if self.executed:
            parts.append(f"rate={self.chips_per_second:.2f}chips/s")
        if self.store_dir is not None:
            parts.append(f"store={self.store_dir}")
        return " ".join(parts)


class CampaignEngine:
    """Run retraining campaigns over chip populations, sharded and resumable.

    Parameters
    ----------
    context:
        An :class:`~repro.experiments.common.ExperimentContext` providing the
        pre-trained model, dataset and array.
    jobs:
        Number of worker processes; ``1`` (the default) executes in this
        process, ``N > 1`` forks N local socket workers for each run.
    store_base:
        Base directory for persistent result stores.  ``None`` keeps results
        in memory only: nothing is written and nothing can be resumed.
    resume:
        When a store is used, skip chips whose results are already recorded.
    progress:
        Log one line per completed chip.
    disk_cache_dir:
        Forwarded to workers so spawned processes can load the pre-trained
        state from the on-disk context cache instead of re-pre-training.
    fat_batch:
        Maximum number of chips, grouped by their largest budget, retrained
        together in one stacked batched-FAT run — the plan chunk size, and
        the only place a stack is sized: the inline path and every worker
        run each planned chunk as one stack.  ``1`` disables coalescing.
        Results are bit-identical either way; the stacked runs just share
        every GEMM across the batch.
    heartbeat_seconds:
        Interval of the progress heartbeat (one INFO line with completed/
        total chips and chips/s throughput).  ``None`` disables it.
    max_chunk_retries:
        Re-executions allowed per chunk after a worker death, hang or
        transient exception before the chunk is quarantined (default 2, so a
        chunk runs at most 3 times).
    chunk_timeout:
        Fixed per-chunk deadline in seconds for hang detection.  ``None``
        (the default) adapts the deadline to the observed chunk durations;
        see :class:`~repro.campaign.supervisor.SupervisorConfig`.
    chaos:
        Deterministic fault-injection spec (a string in the ``--chaos``
        grammar or a :class:`~repro.campaign.chaos.ChaosSpec`); ``None``
        disables injection.  Chaos never changes committed values — retried
        chunks are bit-identical — it only exercises the recovery paths.
    supervisor_config:
        Full :class:`~repro.campaign.supervisor.SupervisorConfig` override
        (tests tune backoff/poll intervals through this).  When given, it is
        used verbatim and ``max_chunk_retries``/``chunk_timeout`` are
        ignored.
    backend:
        Compute backend the batched substrate (triage sweeps and stacked
        trainers) replays its captured eval graphs through.  ``None`` keeps
        the eager path; ``"numpy"`` replays (bit-identical to eager, so it
        shares fingerprints with it).  Anything else raises
        :class:`~repro.backends.BackendError` here, before any store is
        touched.  Every run sets it on the context's
        :class:`~repro.accelerator.batched.EvalPipeline`, and socket workers
        take it from the welcome frame.
    prefetch:
        Accepts only ``True``: the background eval-lowering prefetch thread
        has been removed (it showed no measured wall-clock win), and the
        keyword stays only so callers that still pass ``prefetch=True`` keep
        working.  ``False`` raises :class:`ValueError`.
    lowering_cache_mb:
        Accepts only ``None``: the shared eval-lowering cache has been
        removed (each eval pass lowers its own batches), and the keyword
        stays only so callers that still pass ``lowering_cache_mb=None``
        keep working.  Any other value raises :class:`ValueError`.
    listen:
        ``(host, port)`` to accept socket workers on (``--listen``); turns
        the engine distributed.  Port ``0`` binds an ephemeral port — the
        bound address is ``engine.listen_address``.
    workers:
        ``(host, port)`` addresses of listening socket workers the
        coordinator should dial (``--workers host:port,…``); also turns the
        engine distributed.  In distributed mode ``jobs`` is the number of
        *local* socket workers forked alongside the remote ones and may be
        ``0`` (remote-only execution).
    scheduler_config:
        Transport knobs (:class:`~repro.campaign.scheduler.SchedulerConfig`)
        of the coordinator (local ``--jobs N`` or distributed); chunk
        retry/deadline policy stays in ``supervisor_config`` and is shared
        with the in-process executor.
    """

    DEFAULT_HEARTBEAT_SECONDS = 30.0
    DEFAULT_MAX_CHUNK_RETRIES = 2

    def __init__(
        self,
        context,
        jobs: int = 1,
        store_base: Optional[PathLike] = None,
        resume: bool = True,
        progress: bool = False,
        disk_cache_dir: Optional[PathLike] = None,
        fat_batch: Optional[int] = None,
        heartbeat_seconds: Optional[float] = DEFAULT_HEARTBEAT_SECONDS,
        max_chunk_retries: Optional[int] = None,
        chunk_timeout: Optional[float] = None,
        chaos: Optional[Union[str, ChaosSpec]] = None,
        supervisor_config: Optional[SupervisorConfig] = None,
        backend: Optional[str] = None,
        prefetch: bool = True,
        lowering_cache_mb: Optional[float] = None,
        listen: Optional[Tuple[str, int]] = None,
        workers: Optional[Sequence[Tuple[str, int]]] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.distributed = listen is not None or bool(workers)
        if self.distributed:
            # jobs counts *local socket workers* here; 0 = remote-only.
            if jobs < 0:
                raise ValueError(f"jobs must be >= 0 in distributed mode, got {jobs}")
        elif jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if fat_batch is not None and fat_batch < 1:
            raise ValueError(f"fat_batch must be >= 1, got {fat_batch}")
        if heartbeat_seconds is not None and heartbeat_seconds < 0:
            raise ValueError(
                f"heartbeat_seconds must be non-negative, got {heartbeat_seconds}"
            )
        if prefetch is not True:
            raise ValueError(
                "prefetch must be True: the eval-lowering prefetch thread was removed"
            )
        if lowering_cache_mb is not None:
            raise ValueError(
                "lowering_cache_mb must be None: the eval-lowering cache was removed"
            )
        resolve_backend(backend)
        self.context = context
        self.jobs = int(jobs)
        self.store_base = Path(store_base) if store_base is not None else None
        self.resume = resume
        self.progress = progress
        self.disk_cache_dir = str(disk_cache_dir) if disk_cache_dir is not None else None
        self.fat_batch = int(fat_batch) if fat_batch is not None else DEFAULT_FAT_BATCH
        self.heartbeat_seconds = heartbeat_seconds
        self.chaos_spec = resolve_chaos(chaos)
        self.backend = backend
        if supervisor_config is not None:
            self.supervisor_config = supervisor_config
        else:
            # SupervisorConfig validates the retry/timeout ranges.
            self.supervisor_config = SupervisorConfig(
                max_chunk_retries=(
                    int(max_chunk_retries)
                    if max_chunk_retries is not None
                    else self.DEFAULT_MAX_CHUNK_RETRIES
                ),
                chunk_timeout=chunk_timeout,
            )
        self.scheduler_config = scheduler_config
        # Reports of the last run, one per policy; ``last_report`` is the
        # last policy's (the only one for a single-policy run).
        self.last_reports: List[CampaignReport] = []
        self.last_report: Optional[CampaignReport] = None

        self._coordinator: Optional[CampaignCoordinator] = None
        self.listen_address: Optional[Tuple[str, int]] = None
        if self.distributed:
            self._coordinator = self._new_coordinator(listen, list(workers or ()))
            self.listen_address = self._coordinator.address

    # -- public API ---------------------------------------------------------------

    def run(
        self,
        population: ChipPopulation,
        policy: Union[RetrainingPolicy, Sequence[RetrainingPolicy]],
        strategy: StrategyLike = None,
        triage: Optional[Dict[str, float]] = None,
    ) -> Union[CampaignResult, List[CampaignResult]]:
        """Execute Step 3 for every chip under ``policy`` (Steps 1+2 given).

        ``policy`` may also be a list of policies over the same chips (the
        Fig. 3 comparison).  They then share one Step-3 pass: each chip is
        retrained once, to the largest budget any of the policies gives it,
        and every smaller budget is read off that pass.  One
        :class:`CampaignResult` per policy is returned, in order.  Each policy
        keeps its own jobs, fingerprint, store, resume scan and
        :class:`CampaignReport` (``last_reports``): its store holds the
        manifest and rows a run of that policy alone would write (rows may
        commit in another order), so either run resumes the other's store.
        A single policy is the one-policy case of the same run.

        ``strategy`` selects the mitigation recipe every job is tagged with
        (default: classic FAT) — the fingerprint, the store and the planner
        all key on it, so each strategy of a sweep owns its own resumable
        store.  ``triage`` optionally shares pre-computed (or to-be-computed)
        ``accuracy_before`` values across runs: missing chips are evaluated
        in one batched pass and written back into the mapping, so a sweep can
        hand the same dict to every strategy that measures its initial
        accuracy under the same masks.
        """
        strategy = resolve_strategy(strategy)
        several = isinstance(policy, (list, tuple))
        policies = list(policy) if several else [policy]
        names = [entry.name for entry in policies]
        if not policies or len(set(names)) != len(names):
            raise ValueError(f"policies need distinct names, got {names}")
        with trace.span(
            "campaign.run",
            policy=",".join(names),
            strategy=strategy.name,
            jobs=self.jobs,
            backend=self.backend or "eager",
        ) as run_span:
            results = self._run(population, policies, strategy, triage, run_span)
        self._write_observability_artifacts()
        return results if several else results[0]

    def _open_policy(self, framework, population, policy, strategy) -> _PolicyRun:
        """Resolve one policy's jobs, open its store and scan it for resume."""
        with trace.span("campaign.plan", stage="build_jobs"):
            job_list = build_jobs(framework, population, policy, strategy=strategy)
            target_accuracy = framework.target_accuracy
            clean_accuracy = framework.clean_accuracy

            run = _PolicyRun(policy=policy, jobs=job_list)
            if self.store_base is not None:
                run.fingerprint = campaign_fingerprint(
                    self.context.preset, policy.name, target_accuracy, job_list
                )
                run.store = CampaignStore.open(
                    self.store_base,
                    run.fingerprint,
                    manifest={
                        "policy": policy.name,
                        "strategy": strategy.name,
                        "preset": self.context.preset.name,
                        "num_chips": len(job_list),
                        "target_accuracy": target_accuracy,
                        "clean_accuracy": clean_accuracy,
                        "array_shape": list(population.array_shape),
                        "backend": self.backend or "eager",
                    },
                )

        if run.store is not None:
            if self.resume:
                metrics.gauge("campaign.phase").set("resume_scan")
                with trace.span("campaign.resume_scan"):
                    wanted = {job.chip_id for job in job_list}
                    run.known = {
                        chip_id: result
                        for chip_id, result in run.store.compact().items()
                        if chip_id in wanted
                    }
            else:
                run.store.clear_results()
        run.pending = [job for job in job_list if job.chip_id not in run.known]
        if run.known:
            logger.info(
                "campaign %s: resuming, %d/%d chips already recorded in %s",
                policy.name,
                len(run.known),
                len(job_list),
                run.store.directory,
            )
        return run

    def _run(
        self,
        population: ChipPopulation,
        policies: Sequence[RetrainingPolicy],
        strategy,
        triage: Optional[Dict[str, float]],
        run_span,
    ) -> List[CampaignResult]:
        metrics.gauge("campaign.phase").set("plan")
        # The backend applies to the context's eval pipeline, and so to
        # every framework built from it, here and in this run's in-process
        # executions.
        self.context.eval_pipeline.backend = self.backend
        framework = self.context.framework()
        runs = [
            self._open_policy(framework, population, policy, strategy)
            for policy in policies
        ]
        by_name = {run.policy.name: run for run in runs}
        label = ",".join(by_name)
        total = sum(len(run.jobs) for run in runs)
        run_span.set(chips=total)
        # Every policy's pending jobs, merged: the planner stacks each chip
        # once, however many policies ask for it.
        pending = [job for run in runs for job in run.pending]

        timer = Timer().start()
        done = total - len(pending)

        if pending:
            # Batched triage: the initial accuracy checkpoint of every pending
            # chip is B masked variants of the same pre-trained model, so one
            # multi-chip sweep replaces |pending| serial test-set passes.  The
            # values are numerically identical to the serial evaluation, and
            # zero-epoch jobs become pure lookups for the executor.  A caller-
            # supplied ``triage`` dict is consulted first and extended in
            # place, so sweeps share one pass among same-mask strategies.
            metrics.gauge("campaign.phase").set("triage")
            with trace.span("campaign.triage", chips=len(pending)):
                triage = triage if triage is not None else {}
                missing = {
                    job.chip_id: job for job in pending if job.chip_id not in triage
                }
                if missing:
                    triage.update(
                        framework.triage_population(
                            [job.chip for job in missing.values()],
                            strategy=strategy,
                        )
                    )
                pending = [
                    job.with_accuracy_before(triage[job.chip_id]) for job in pending
                ]

        executed = 0
        last_heartbeat = time.monotonic()
        chips_counter = metrics.counter(
            "campaign.chips_completed", strategy=strategy.name
        )
        heartbeat_count = chips_counter.value
        # Planned after chunking (the schedule needs the chunk count); the
        # closure below reads the rebound value at call time.
        chaos_schedule: Optional[ChaosSchedule] = None

        def record_chunk(
            pairs: Sequence[Tuple[ChipJob, ChipRetrainingResult]]
        ) -> None:
            """Group-result protocol: persist + account one chunk at a time.

            Each result goes to the store of its job's policy.
            """
            nonlocal done, executed, last_heartbeat, heartbeat_count
            rows: Dict[str, List[ChipRetrainingResult]] = {}
            for job, result in pairs:
                rows.setdefault(job.policy_name, []).append(result)
            for name, results in rows.items():
                run = by_name[name]
                if run.store is not None:
                    run.store.append_many(results)
                    if chaos_schedule is not None:
                        chaos_schedule.maybe_tear(run.store)
                for result in results:
                    run.known[result.chip_id] = result
                    done += 1
                    executed += 1
                    # Committed-chip instants are emitted parent-side *after*
                    # the store append succeeded, so a merged trace never
                    # contains duplicate chip events across a kill/resume
                    # cycle (resumed chips are loaded from the store and emit
                    # none).
                    trace.instant(
                        "campaign.chip",
                        chip_id=result.chip_id,
                        strategy=strategy.name,
                        policy=name,
                    )
                    if self.progress:
                        logger.info(
                            "campaign %s: %d/%d chip %s rate=%.3f epochs=%.3f "
                            "acc=%.3f meets=%s",
                            name,
                            done,
                            total,
                            result.chip_id,
                            result.fault_rate,
                            result.epochs_trained,
                            result.accuracy_after,
                            result.meets_constraint,
                        )
            metrics.counter("campaign.chunks_recorded").inc()
            chips_counter.inc(len(pairs))
            now = time.monotonic()
            if (
                self.heartbeat_seconds is not None
                and now - last_heartbeat >= self.heartbeat_seconds
                and done < total
            ):
                # Recent rate from the chips-completed counter delta over the
                # heartbeat window (falling back to the cumulative rate on the
                # first beat), which feeds the ETA for the remaining chips.
                window = max(now - last_heartbeat, 1e-9)
                recent_rate = (chips_counter.value - heartbeat_count) / window
                last_heartbeat = now
                heartbeat_count = chips_counter.value
                elapsed_so_far = max(now - started, 1e-9)
                rate = recent_rate if recent_rate > 0 else executed / elapsed_so_far
                remaining = total - done
                phase = metrics.gauge("campaign.phase").value or "execute"
                eta = format_duration(remaining / rate) if rate > 0 else "?"
                logger.info(
                    "campaign %s: heartbeat %d/%d chips done "
                    "(%.1f chips/s, eta %s, phase %s)",
                    label,
                    done,
                    total,
                    rate,
                    eta,
                    phase,
                )

        failures: List[ChunkFailure] = []
        if pending:
            # Worker-aware planning: one big group still splits across all
            # requested workers instead of starving them.
            metrics.gauge("campaign.phase").set("plan")
            with trace.span("campaign.plan", stage="chunk", chips=len(pending)):
                plan = plan_job_chunks(
                    pending, self.fat_batch, workers=self._plan_worker_hint()
                )
            metrics.counter("campaign.chunks_planned").inc(len(plan))
            if self.chaos_spec is not None:
                chaos_schedule = self.chaos_spec.schedule(len(plan))
                logger.warning(
                    "campaign %s: chaos injection enabled (%s) over %d chunks",
                    label,
                    self.chaos_spec.describe(),
                    len(plan),
                )
            batched_chips = sum(len(chunk) for chunk in plan if len(chunk) > 1)
            if batched_chips:
                logger.info(
                    "campaign %s: planned %d jobs into %d chunks, "
                    "%d jobs in stacked batched-FAT chunks (fat_batch=%d)",
                    label,
                    len(pending),
                    len(plan),
                    batched_chips,
                    self.fat_batch,
                )
            started = time.monotonic()
            # Triaged zero-epoch jobs are pure result-row lookups: starting
            # workers (which rebuild a framework each) to format them would
            # cost far more than executing them here, so non-retraining
            # strategy campaigns always run in-process.
            all_lookups = all(job.epochs == 0 for job in pending)
            on_workers = not all_lookups and (
                self._coordinator is not None or (self.jobs > 1 and len(plan) > 1)
            )
            metrics.gauge("campaign.phase").set("execute")
            with trace.span(
                "campaign.execute", chunks=len(plan), chips=len(pending)
            ):
                if on_workers:
                    failures = self._execute_on_workers(
                        plan, record_chunk, strategy, chaos_schedule
                    )
                else:
                    failures = self._execute_inline(
                        framework, plan, record_chunk, chaos_schedule
                    )
        elapsed = timer.stop()
        metrics.gauge("campaign.phase").set("finalize")

        # Graceful degradation: quarantined chunks become per-chip failure
        # records instead of an engine crash.  Each store's quarantine file
        # is rewritten every run — cleared when a previously-poisoned
        # campaign completes cleanly — and a chaos-torn trailing fragment (or
        # any other torn tail) is repaired before the store is handed back to
        # callers.
        failed_chips: Dict[str, List[Dict[str, object]]] = {name: [] for name in by_name}
        quarantined: Dict[str, List[Dict[str, object]]] = {name: [] for name in by_name}
        for failure in failures:
            shares: Dict[str, List[ChipJob]] = {}
            for job in failure.chunk:
                shares.setdefault(job.policy_name, []).append(job)
            for name, jobs in shares.items():
                share = dataclasses.replace(failure, chunk=jobs)
                failed_chips[name].extend(share.chip_failure_records())
                quarantined[name].append(share.to_dict())
        num_failed = sum(len(records) for records in failed_chips.values())
        if num_failed:
            metrics.counter("campaign.chips_failed").inc(num_failed)
            logger.error(
                "campaign %s: %d chip(s) in %d quarantined chunk(s) failed "
                "permanently: %s",
                label,
                num_failed,
                len(failures),
                ", ".join(
                    str(record["chip_id"])
                    for records in failed_chips.values()
                    for record in records
                ),
            )

        self.last_reports = []
        results: List[CampaignResult] = []
        for run in runs:
            name = run.policy.name
            if run.store is not None:
                run.store.write_quarantine(quarantined[name])
                run.store.repair()
            report = CampaignReport(
                policy_name=name,
                total_chips=len(run.jobs),
                executed=len(run.pending) - len(failed_chips[name]),
                skipped=len(run.jobs) - len(run.pending),
                jobs=self.jobs,
                elapsed_seconds=elapsed,
                fingerprint=run.fingerprint,
                store_dir=run.store.directory if run.store is not None else None,
                failed=len(failed_chips[name]),
            )
            self.last_reports.append(report)
            logger.info("campaign finished: %s", report.describe())
            results.append(
                CampaignResult(
                    policy_name=name,
                    target_accuracy=framework.target_accuracy,
                    clean_accuracy=framework.clean_accuracy,
                    results=[
                        run.known[job.chip_id] for job in run.jobs if job.chip_id in run.known
                    ],
                    failed_chips=failed_chips[name],
                )
            )
        self.last_report = self.last_reports[-1]
        executed_total = sum(report.executed for report in self.last_reports)
        if executed_total:
            metrics.gauge(
                "campaign.chips_per_second", strategy=strategy.name
            ).set(executed_total / elapsed if elapsed > 0 else float("inf"))
        return results

    def _write_observability_artifacts(self) -> None:
        """Refresh merged trace/metrics artifacts after a run (idempotent).

        Re-running after every ``run()`` keeps the merged views current for
        multi-arm sweeps: each arm's spans simply extend the same shards and
        the merge is rewritten atomically.
        """
        if not (trace.enabled or metrics.enabled):
            return
        directory = trace.directory
        if trace.enabled and directory is not None:
            trace.flush()
            metrics.write_shard(directory)
            write_chrome_trace(directory)
            write_merged_metrics(directory)
        elif (
            metrics.enabled
            and self.last_report is not None
            and self.last_report.store_dir is not None
        ):
            metrics.write_shard(self.last_report.store_dir)
            write_merged_metrics(self.last_report.store_dir)

    def run_reduce(
        self,
        population: ChipPopulation,
        statistic: str = "max",
        strategy: StrategyLike = None,
    ) -> CampaignResult:
        """Steps 1+2+3 with the resilience-driven policy (Step 1 cached)."""
        self.context.resilience_profile()
        policy = self.context.framework().build_policy(statistic)
        return self.run(population, policy, strategy=strategy)

    def run_fixed(
        self,
        population: ChipPopulation,
        epochs: float,
        strategy: StrategyLike = None,
    ) -> CampaignResult:
        """The fixed-budget baseline through the engine."""
        return self.run(population, FixedEpochPolicy(epochs), strategy=strategy)

    # -- executor: in-process ------------------------------------------------------

    def _execute_inline(
        self,
        framework,
        plan: Sequence[List[ChipJob]],
        record_chunk: Callable[[Sequence[Tuple[ChipJob, ChipRetrainingResult]]], None],
        chaos_schedule: Optional[ChaosSchedule] = None,
    ) -> List[ChunkFailure]:
        """Execute the plan in this process, one chunk attempt at a time.

        Results are recorded (and persisted) after every chunk, so a killed
        campaign loses at most the chunks not yet committed.  The coordinator's
        :class:`~repro.campaign.supervisor.ChunkLedger` owns recovery here
        too: a chunk that raises is retried after its backoff (other chunks
        run meanwhile) and quarantined past ``max_chunk_retries``, and the
        :class:`~repro.campaign.supervisor.ChunkCommitSequencer` keeps a
        retried chunk from reordering ``results.jsonl``.  Chaos process
        faults (kill/hang) are no-ops here — killing the only process is not
        a recoverable fault.
        """
        ledger = ChunkLedger(plan, self.supervisor_config)
        sequencer = ChunkCommitSequencer(len(plan), record_chunk)
        while ledger.outstanding():
            now = time.monotonic()
            state = ledger.ready_chunk(now)
            if state is None:  # every remaining chunk is backing off
                release = min(
                    chunk.not_before
                    for chunk in ledger.chunks
                    if chunk.status == "pending"
                )
                time.sleep(max(0.0, release - now))
                continue
            attempt = ledger.start(state)
            try:
                if chaos_schedule is not None:
                    chaos_schedule.maybe_inject(
                        state.index, attempt, allow_process_faults=False
                    )
                results = execute_job_chunk(framework, state.chunk, attempt=attempt)
            except Exception as error:  # noqa: BLE001 - quarantine boundary
                ledger.fail(state, repr(error), time.monotonic())
                if state.status == "quarantined":
                    sequencer.skip(state.index)
            else:
                ledger.complete(state, time.monotonic() - now)
                sequencer.commit(state.index, list(zip(state.chunk, results)))
        return ledger.failures

    # -- executor: socket workers --------------------------------------------------

    def _new_coordinator(
        self,
        listen: Optional[Tuple[str, int]] = None,
        connect: Sequence[Tuple[str, int]] = (),
    ) -> CampaignCoordinator:
        return CampaignCoordinator(
            preset=self.context.preset,
            listen=listen,
            connect=connect,
            backend=self.backend,
            supervisor_config=self.supervisor_config,
            config=self.scheduler_config,
            disk_cache_dir=self.disk_cache_dir,
        )

    def _plan_worker_hint(self) -> int:
        """Worker count for plan sizing: ``jobs``, or the joined fleet if larger.

        Joined local workers are already part of the coordinator's count, so
        the two are not added.
        """
        hint = self.jobs
        if self._coordinator is not None:
            hint = max(hint, self._coordinator.worker_hint())
        return max(1, hint)

    def _execute_on_workers(
        self,
        plan: Sequence[List[ChipJob]],
        record_chunk: Callable[[Sequence[Tuple[ChipJob, ChipRetrainingResult]]], None],
        strategy,
        chaos_schedule: Optional[ChaosSchedule] = None,
    ) -> List[ChunkFailure]:
        """Serve plan chunks to socket workers through a coordinator.

        A distributed engine reuses its long-lived coordinator and tops up
        its ``jobs`` local workers.  A local ``jobs > 1`` run gets a private
        loopback coordinator with ``min(jobs, chunks)`` forked workers that
        lives for this call only, so callers that never ``close()`` the
        engine leak nothing.  Either way results commit through
        ``record_chunk`` on this thread, in plan order.
        """
        coordinator = self._coordinator
        local_workers = self.jobs
        if coordinator is None:
            coordinator = self._new_coordinator()
            local_workers = min(self.jobs, len(plan))
        try:
            coordinator.ensure_local_workers(local_workers)
            logger.info(
                "campaign: serving %d chips in %d chunks to socket workers "
                "(%d local, coordinator on %s, fat_batch=%d, max_chunk_retries=%d)",
                sum(len(chunk) for chunk in plan),
                len(plan),
                local_workers,
                f"{coordinator.address[0]}:{coordinator.address[1]}",
                self.fat_batch,
                self.supervisor_config.max_chunk_retries,
            )
            return coordinator.run_plan(
                plan, record_chunk, strategy=strategy.name, chaos=chaos_schedule
            )
        finally:
            if coordinator is not self._coordinator:
                coordinator.close()

    def close(self) -> None:
        """Shut down the distributed fleet (idempotent; no-op when local)."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

