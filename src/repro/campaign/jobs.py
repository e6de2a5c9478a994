"""Work-unit layer of the campaign engine.

The Step 2+3 slice of the Reduce flow for one chip — look up the retraining
amount, restore the pre-trained weights, retrain under the chip's fault masks
and evaluate against the constraint — is embarrassingly parallel across a
chip population.  A :class:`ChipJob` captures everything that slice needs
beyond the (shared, pre-trained) framework:

* the population's own :class:`~repro.core.chips.Chip` (id + fault map),
* the retraining amount chosen by the policy in the parent process, and
* the accuracy target resolved once against the clean accuracy.

A job holds the chip object itself, so the jobs of several policies over one
population share each chip's fault map.  The chip is serialized only at the
worker socket: :meth:`ChipJob.to_dict` writes ``Chip.to_dict()`` (id +
fault-map coordinates) into the chunk frame and :meth:`ChipJob.from_dict`
parses it back in the worker.  The store fingerprint serializes one job at a
time.  Jobs are picklable, and executing one is a pure function of
``(framework pre-trained state, job)``: the
retraining seed is a deterministic function of the campaign configuration
(shared by every chip — see :meth:`ReduceFramework._fat_training_config`),
so the result does not depend on which process runs the job or in what order
jobs complete.

The planner/executor split builds on exactly that purity.  The planner,
:func:`plan_job_chunks`, is the one place that sizes a stack: it merges
pending jobs per chip (one job per policy), groups the chips by their
largest budget and cuts each group into *chunks* of at most ``fat_batch``
chips.  The executor, :func:`execute_job_chunk`, runs one chunk as one
stacked :class:`~repro.accelerator.batched.BatchedFaultTrainer` run — a
single-chip chunk is a stack of one — once to the largest budget, reading
every smaller budget off that pass, and returns exactly what retraining each
chip alone would (the tests pin this against the serial reference
``reference_retrain_chip`` in ``tests/helpers.py``).  Every job it runs
carries the ``accuracy_before`` the engine's triage measured.  A chunk is
both the unit of dispatch (the campaign engine hands whole chunks to worker
processes, so ``--jobs N`` and ``--fat-batch B`` compose) and the unit of
resume granularity (results are persisted chunk by chunk).  Any partition of
the same jobs yields bit-identical results, so a resumed campaign may regroup
the remaining jobs differently without changing a single recorded value.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.chips import Chip, ChipPopulation
from repro.core.reduce import ReduceFramework
from repro.core.results import ChipRetrainingResult
from repro.core.selection import RetrainingPolicy
from repro.mitigation.strategy import (
    DEFAULT_STRATEGY_NAME,
    StrategyLike,
    resolve_strategy,
)
from repro.observability import metrics, trace

# The campaign's default ``fat_batch``: the planner cuts Step-3 chips into
# stacks of at most this many chips (bounds the stacked-weight memory).
DEFAULT_FAT_BATCH = 8


@dataclasses.dataclass(frozen=True)
class ChipJob:
    """One chip's select+mitigate+evaluate step, as a self-contained unit.

    ``chip`` is the population's :class:`Chip`, not a copy: it is serialized
    only when a job crosses the worker socket (:meth:`to_dict` /
    :meth:`from_dict`).
    """

    chip: Chip
    epochs: float
    target_accuracy: float
    policy_name: str
    # Initial (pre-retraining) accuracy measured by the engine's batched
    # triage pass; the executor requires it.  Not part of the campaign
    # fingerprint: it is derived data, not work definition.
    accuracy_before: Optional[float] = None
    # How the chip is mitigated before/instead of spending the budget (part
    # of the work definition, so part of the campaign fingerprint).
    strategy: str = DEFAULT_STRATEGY_NAME

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")

    @property
    def chip_id(self) -> str:
        return self.chip.chip_id

    def with_accuracy_before(self, accuracy: float) -> "ChipJob":
        return dataclasses.replace(self, accuracy_before=float(accuracy))

    def to_dict(self) -> Dict[str, Any]:
        # The wire form of a job: the chip becomes its id and fault-map
        # coordinates here, at the socket, and nowhere else.
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        data["chip"] = self.chip.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChipJob":
        accuracy_before = data.get("accuracy_before")
        return cls(
            chip=Chip.from_dict(data["chip"]),
            epochs=float(data["epochs"]),
            target_accuracy=float(data["target_accuracy"]),
            policy_name=str(data["policy_name"]),
            accuracy_before=None if accuracy_before is None else float(accuracy_before),
            strategy=str(data.get("strategy", DEFAULT_STRATEGY_NAME)),
        )


def build_jobs(
    framework: ReduceFramework,
    population: ChipPopulation,
    policy: RetrainingPolicy,
    strategy: StrategyLike = None,
) -> List[ChipJob]:
    """Resolve a policy over a population into per-chip jobs (Step 2 output).

    Jobs are returned in population order; the campaign engine preserves that
    order in its results regardless of completion order, so serial and
    parallel runs are directly comparable.  ``strategy`` tags every job and
    clamps the budget to what the strategy actually spends (zero for
    non-retraining strategies and for bypassable chips under ``bypass+fat``),
    so the planner groups jobs by the work they really represent.  Each job
    holds the population's
    own :class:`Chip`, so the jobs of several policies over one population
    share every fault map and building them copies no coordinates.
    """
    resolved = resolve_strategy(strategy)
    amounts = policy.epochs_for_population(population)
    target = framework.target_accuracy
    return [
        ChipJob(
            chip=chip,
            epochs=resolved.effective_epochs(float(amounts[chip.chip_id]), chip.fault_map),
            target_accuracy=target,
            policy_name=policy.name,
            strategy=resolved.name,
        )
        for chip in population
    ]


def plan_job_chunks(
    jobs: Sequence[ChipJob], fat_batch: int, workers: int = 1
) -> List[List[ChipJob]]:
    """Partition pending jobs into executor chunks (the campaign *plan*).

    Jobs are merged per chip, and the chips grouped by ``(largest budget,
    strategy)``: every job of one chip under one strategy shares a stack
    slot, which trains once, to the chip's largest budget, and reads every
    smaller budget off that pass.  Chips whose largest budgets agree train
    equally long, so they coalesce; a stacked run shares one set of stacked
    keep-multipliers, so a multi-strategy sweep's chips partition cleanly
    along this key.  Every group — zero-budget triage lookups and singleton
    budgets included — is cut into chunks of at most ``fat_batch`` chips,
    each carrying all of its chips' jobs, and the executor runs a chunk as
    one stacked :class:`~repro.accelerator.batched.BatchedFaultTrainer` run
    (``fat_batch == 1``: one chip per stacked run).  With one job per chip
    (a single-policy campaign) the largest budget is the budget, so chunks
    are same-budget groups.

    ``workers`` is the dispatch parallelism the plan should be able to feed:
    a group is chunked at ``min(fat_batch, ceil(chips / workers))`` so a
    single large group still splits across every worker instead of
    collapsing into one chunk (slightly smaller stacked batches in exchange
    for keeping all requested processes busy).  ``workers=1`` (the in-process
    path) leaves ``fat_batch`` as the only cap.

    Groups and the chips within them keep first-appearance order, so
    planning the same pending jobs always yields the same chunks, and
    executing any plan over the same jobs yields bit-identical per-job
    results (the batched trainer's serial-equivalence guarantee); only the
    completion order may differ.
    """
    if fat_batch < 1:
        raise ValueError(f"fat_batch must be >= 1, got {fat_batch}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    per_chip: Dict[Tuple[str, str], List[ChipJob]] = {}
    for job in jobs:
        per_chip.setdefault((job.chip_id, job.strategy), []).append(job)
    groups: Dict[Tuple[float, str], List[List[ChipJob]]] = {}
    for (_, strategy), chip_jobs in per_chip.items():
        largest = max(float(job.epochs) for job in chip_jobs)
        groups.setdefault((largest, strategy), []).append(chip_jobs)
    chunks: List[List[ChipJob]] = []
    for group in groups.values():
        chunk_cap = min(fat_batch, -(-len(group) // workers))
        for start in range(0, len(group), chunk_cap):
            chip_jobs = group[start:start + chunk_cap]
            chunks.append([job for jobs_of_chip in chip_jobs for job in jobs_of_chip])
    return chunks


def execute_job_chunk(
    framework: ReduceFramework,
    chunk: Sequence[ChipJob],
    attempt: int = 0,
) -> List[ChipRetrainingResult]:
    """Execute one plan chunk as one stacked run; returns results in chunk order.

    Each result is bit-identical (on this BLAS build) to the chip retrained
    alone by the serial reference (``tests/helpers.py``:
    ``reference_retrain_chip``).  Jobs may ask one chip for several budgets
    (one job per policy); the chip then trains once and every budget is read
    off that pass.  All jobs must share the same ``target_accuracy`` and
    ``strategy``, and each must carry the ``accuracy_before`` measured by
    triage.  ``attempt`` tags the chunk span so a trace distinguishes first
    executions from supervisor retries after a worker death or hang.
    """
    chunk_list = list(chunk)
    if not chunk_list:
        return []
    target = chunk_list[0].target_accuracy
    strategy = chunk_list[0].strategy
    for job in chunk_list[1:]:
        if job.target_accuracy != target or job.strategy != strategy:
            raise ValueError(
                "a chunk requires jobs with identical target and "
                f"strategy (got target {job.target_accuracy} vs {target}, "
                f"strategy {job.strategy!r} vs {strategy!r})"
            )
    untriaged = [job.chip_id for job in chunk_list if job.accuracy_before is None]
    if untriaged:
        raise ValueError(f"jobs of chips {untriaged} carry no accuracy_before")
    # The chunk span is an execution *attempt*: it lands in the shard of
    # whichever process ran the chunk (worker shards are keyed by pid), and a
    # killed-then-resumed campaign may legitimately record the same chunk
    # twice.  Committed chips are the parent-side "campaign.chip" instants.
    with trace.span(
        "campaign.chunk",
        chips=len({job.chip_id for job in chunk_list}),
        epochs=max(job.epochs for job in chunk_list),
        strategy=strategy,
        attempt=attempt,
    ):
        results = framework.retrain_chips_batched(
            [job.chip for job in chunk_list],
            [job.epochs for job in chunk_list],
            {job.chip_id: job.accuracy_before for job in chunk_list},
            target_accuracy=target,
            strategy=strategy,
        )
    metrics.counter("campaign.chunks_executed").inc()
    return results
