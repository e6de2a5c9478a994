"""Span recording from outside the program, and the per-layer metrics.

The traced benchmark run installs wrappers around public functions of each
``repro`` layer (see :data:`TARGETS`).  Every wrapped call on the main thread
becomes one span ``[name, start, end, parent]`` in an in-memory list; calls
from helper threads (the eval-lowering prefetcher) only feed counters, so
each span's parent is the innermost span open on the same thread.  The list
is written out once, when the workload ends, and :func:`layer_metrics` turns
it into per-layer totals, self times (duration minus the part covered by
child spans) and counts.

Nothing here touches the program's own tracer: ``repro``'s ``--trace`` stays
off in every benchmark run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped public function.  A
#: span name is the stem of the layer's time metric; several functions may
#: share one name when together they are that layer's work.
TARGETS: List[Tuple[str, str, str]] = [
    ("experiments.context", "repro.experiments.common", "ExperimentContext.from_preset"),
    ("experiments.dataset", "repro.experiments.common", "build_dataset"),
    ("training.train", "repro.training", "Trainer.train"),
    ("training.eval", "repro.training", "evaluate_accuracy"),
    ("core.resilience.run", "repro.core.resilience", "ResilienceAnalyzer.run"),
    ("core.selection.policy", "repro.core.reduce", "ReduceFramework.build_policy"),
    ("core.selection.policy", "repro.core.selection", "RetrainingPolicy.epochs_for_population"),
    ("core.reduce.triage", "repro.core.reduce", "ReduceFramework.triage_population"),
    ("mitigation.masks", "repro.mitigation.strategy", "MitigationStrategy.chip_masks"),
    ("accelerator.batched.fat_train", "repro.accelerator.batched", "BatchedFaultTrainer.train"),
    ("accelerator.batched.eval", "repro.accelerator.batched", "BatchedFaultTrainer.evaluate"),
    ("accelerator.batched.eval", "repro.accelerator.batched", "evaluate_chip_accuracies"),
    ("accelerator.batched.lowering", "repro.accelerator.batched", "LoweringCache.get_or_compute"),
    ("backends.replay", "repro.backends.numpy_backend", "CompiledGraph.__call__"),
    ("backends.capture", "repro.backends.capture", "capture_graph"),
    ("campaign.run", "repro.campaign.engine", "CampaignEngine.run"),
    ("campaign.plan", "repro.campaign.jobs", "build_jobs"),
    ("campaign.plan", "repro.campaign.jobs", "plan_job_chunks"),
    ("campaign.sweep", "repro.campaign.sweep", "run_strategy_sweep"),
    ("campaign.store.append", "repro.campaign.store", "CampaignStore.append_many"),
    ("campaign.store.resume_scan", "repro.campaign.store", "CampaignStore.compact"),
    ("campaign.store.resume_scan", "repro.campaign.store", "CampaignStore.completed"),
]

#: Wrapped functions the self-check lets go uncalled.  Each eval pass builds
#: a fresh graph cache and walks two batches of different shapes (160 and 40
#: test images), so every capture misses and nothing replays; a program that
#: starts replaying simply reports a non-zero ``backends.replay_s``.
IDLE_TARGETS = {"repro.backends.numpy_backend:CompiledGraph.__call__"}

#: Top-level spans workload.py opens around its own phases.
PHASES = ("bench.setup", "bench.population", "bench.command", "bench.finalize")

#: Spans whose time ``campaign.wait_s`` excludes from ``campaign.run``.
_RUN_OVERHEAD = ("core.reduce.triage", "campaign.plan", "campaign.store.append",
                 "campaign.store.resume_scan")


class SpanRecorder:
    """In-memory span list with per-thread parent links, plus counters."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent index]
        self.counts: Dict[str, float] = defaultdict(float)
        self.called: Dict[str, int] = defaultdict(int)  # "module:attr" -> calls
        self._main = threading.main_thread()
        self._stack: List[int] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, start: Optional[float] = None) -> List[Any]:
        span = [name, time.monotonic() if start is None else start, 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: List[Any]) -> None:
        span[2] = time.monotonic()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None):
        """Record the block as one span (``start`` may predate the block)."""
        span = self._open(name, start)
        try:
            yield
        finally:
            self._close(span)

    def timed(self, name: str, key: str, fn: Callable,
              after: Optional[Callable[[tuple, dict, Any], None]] = None) -> Callable:
        """``fn`` wrapped to record one span per main-thread call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.called[key] += 1
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def timed_context(self, name: str, key: str, factory: Callable) -> Callable:
        """A context-manager factory whose ``with`` block becomes one span."""

        @functools.wraps(factory)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            self.called[key] += 1
            with factory(*args, **kwargs) as value:
                if threading.current_thread() is not self._main:
                    yield value
                    return
                span = self._open(name)
                try:
                    yield value
                finally:
                    self._close(span)

        return wrapper

    # -- output ---------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts),
                "called": dict(self.called)}


# -- installing the wrappers --------------------------------------------------


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of ``module:path``; raises if absent."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attribute not in vars(owner):
        raise AttributeError(f"{module_name}:{path} not found")
    return owner, attribute, vars(owner)[attribute]


def _replace_module_function(original: Callable, wrapper: Callable) -> int:
    """Rebind every ``repro`` module global that holds ``original``."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                rebound += 1
    return rebound


def _hooks(recorder: SpanRecorder) -> Dict[str, Callable]:
    """Per-target post-call hooks that record the layer counts."""
    counts = recorder.counts

    def budgets(args, kwargs, result):
        counts["core.selection.budget_groups"] += len(set(result.values()))

    def triage(args, kwargs, result):
        counts["core.reduce.triage_chips"] += len(result)

    def fat_train(args, kwargs, result):
        counts["accelerator.batched.fat_train_chips"] += args[0].num_chips

    def chunks(args, kwargs, result):
        counts["campaign.chunks"] += len(result)

    def engine(args, kwargs, result):
        counts["campaign.fat_batch"] = args[0].fat_batch

    return {
        "CampaignEngine.run": engine,
        "RetrainingPolicy.epochs_for_population": budgets,
        "ReduceFramework.triage_population": triage,
        "BatchedFaultTrainer.train": fat_train,
        "plan_job_chunks": chunks,
    }


def _lowering_wrapper(recorder: SpanRecorder, name: str, key: str, fn: Callable) -> Callable:
    """``LoweringCache.get_or_compute`` that counts consumer hits and peak bytes.

    Only calls that record hits (``record=True``: the eval hot loop, not the
    prefetch thread) count as lookups, matching the program's own counters.
    """
    counts = recorder.counts
    timed = recorder.timed(name, key, fn)

    @functools.wraps(fn)
    def wrapper(self, lowering_key, compute, record=True):
        computed = []

        def compute_and_note():
            computed.append(True)
            return compute()

        result = timed(self, lowering_key, compute_and_note, record)
        if record:
            counts["accelerator.batched.lowering_calls"] += 1
            if not computed:
                counts["accelerator.batched.lowering_hits"] += 1
        peak = counts["accelerator.batched.lowering_peak_bytes"]
        counts["accelerator.batched.lowering_peak_bytes"] = max(peak, self.nbytes)
        return result

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`TARGETS` function; raises if any is missing."""
    hooks = _hooks(recorder)
    for name, module_name, path in TARGETS:
        owner, attribute, raw = _resolve(module_name, path)
        key = f"{module_name}:{path}"
        if path == "LoweringCache.get_or_compute":
            setattr(owner, attribute, _lowering_wrapper(recorder, name, key, raw))
        elif path == "capture_graph":
            wrapper = recorder.timed_context(name, key, raw)
            if not _replace_module_function(raw, wrapper):
                raise AttributeError(f"{key} is not bound in any module")
        elif isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(recorder.timed(name, key, raw.__func__)))
        elif isinstance(owner, type):
            setattr(owner, attribute, recorder.timed(name, key, raw, hooks.get(path)))
        else:
            wrapper = recorder.timed(name, key, raw, hooks.get(path))
            if not _replace_module_function(raw, wrapper):
                raise AttributeError(f"{key} is not bound in any module")


def target_keys() -> List[str]:
    return [f"{module}:{path}" for _, module, path in TARGETS]


def record_probes(recorder: SpanRecorder) -> None:
    """Read the program's process-wide mask-cache counters into the recorder."""
    from repro.accelerator.mapping import mask_cache_stats

    stats = mask_cache_stats()
    recorder.counts["accelerator.mapping.mask_cache_hits"] = stats["hits"]
    recorder.counts["accelerator.mapping.mask_cache_lookups"] = stats["hits"] + stats["misses"]


# -- per-layer metrics ----------------------------------------------------------

#: Every per-layer metric and its unit (README.md says which end-to-end
#: metric and workload each should move).
LAYER_METRICS: List[Tuple[str, str]] = [
    ("experiments.context_s", "s"),
    ("experiments.context_self_s", "s"),
    ("experiments.dataset_s", "s"),
    ("training.train_s", "s"),
    ("training.train_self_s", "s"),
    ("training.train_calls", "count"),
    ("training.eval_s", "s"),
    ("core.resilience.run_s", "s"),
    ("core.resilience.run_self_s", "s"),
    ("core.resilience.cells", "count"),
    ("core.selection.policy_s", "s"),
    ("core.selection.budget_groups", "count"),
    ("core.reduce.triage_s", "s"),
    ("core.reduce.triage_self_s", "s"),
    ("core.reduce.triage_chips", "count"),
    ("mitigation.masks_s", "s"),
    ("mitigation.masks_built", "count"),
    ("accelerator.mapping.mask_cache_hit_frac", "ratio"),
    ("accelerator.mapping.mask_cache_hits", "count"),
    ("accelerator.mapping.mask_cache_lookups", "count"),
    ("accelerator.batched.fat_train_s", "s"),
    ("accelerator.batched.fat_train_self_s", "s"),
    ("accelerator.batched.fat_train_calls", "count"),
    ("accelerator.batched.chunk_fill_frac", "ratio"),
    ("accelerator.batched.eval_s", "s"),
    ("accelerator.batched.eval_self_s", "s"),
    ("accelerator.batched.lowering_hit_frac", "ratio"),
    ("accelerator.batched.lowering_hits", "count"),
    ("accelerator.batched.lowering_calls", "count"),
    ("accelerator.batched.lowering_cache_mb", "MB"),
    ("backends.replay_s", "s"),
    ("backends.capture_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.plan_s", "s"),
    ("campaign.chunks", "count"),
    ("campaign.first_commit_s", "s"),
    ("campaign.commit_gap_s", "s"),
    ("campaign.wait_s", "s"),
    ("campaign.store.append_s", "s"),
    ("campaign.store.appends", "count"),
    ("campaign.store.resume_scan_s", "s"),
    ("bench.phase_coverage_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.wall_raw_s", "s"),
    ("bench.host_probe_s", "s"),
]

LAYER_UNITS: Dict[str, str] = dict(LAYER_METRICS)


def _children(spans: List[List[Any]]) -> List[List[int]]:
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    return children


def _outermost(spans: List[List[Any]], names: Iterable[str],
               within: Optional[int] = None) -> List[int]:
    """Spans named in ``names`` with no same-set ancestor (below ``within``)."""
    names = set(names)
    found = []
    for index, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent, nested, inside = span[3], False, within is None
        while parent >= 0:
            if parent == within:
                inside = True
                break
            if spans[parent][0] in names:
                nested = True
            parent = spans[parent][3]
        if inside and not nested:
            found.append(index)
    return found


def self_times(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children = _children(spans)
    return [
        (span[2] - span[1]) - sum(spans[c][2] - spans[c][1] for c in children[index])
        for index, span in enumerate(spans)
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(dump: Dict[str, Any], traced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced workload process."""
    spans, counts = dump["spans"], defaultdict(float, dump["counts"])
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, [name]))

    def self_total(name: str) -> float:
        return sum(selfs[i] for i, span in enumerate(spans) if span[0] == name)

    def count(name: str) -> int:
        return len(_outermost(spans, [name]))

    values: Dict[str, float] = {}
    for stem in ("experiments.context", "training.train", "core.resilience.run",
                 "core.reduce.triage", "accelerator.batched.fat_train",
                 "accelerator.batched.eval"):
        values[f"{stem}_s"] = total(stem)
        values[f"{stem}_self_s"] = self_total(stem)
    for stem in ("experiments.dataset", "training.eval", "core.selection.policy",
                 "mitigation.masks", "backends.replay", "backends.capture",
                 "campaign.run", "campaign.plan", "campaign.store.append",
                 "campaign.store.resume_scan"):
        values[f"{stem}_s"] = total(stem)

    values["training.train_calls"] = count("training.train")
    values["core.resilience.cells"] = sum(
        len(_outermost(spans, ["training.train"], within=run))
        for run in _outermost(spans, ["core.resilience.run"])
    )
    values["core.selection.budget_groups"] = counts["core.selection.budget_groups"]
    values["core.reduce.triage_chips"] = counts["core.reduce.triage_chips"]
    values["mitigation.masks_built"] = count("mitigation.masks")

    hits, lookups = (counts["accelerator.mapping.mask_cache_hits"],
                     counts["accelerator.mapping.mask_cache_lookups"])
    values["accelerator.mapping.mask_cache_hits"] = hits
    values["accelerator.mapping.mask_cache_lookups"] = lookups
    values["accelerator.mapping.mask_cache_hit_frac"] = _ratio(hits, lookups)

    calls = count("accelerator.batched.fat_train")
    values["accelerator.batched.fat_train_calls"] = calls
    values["accelerator.batched.chunk_fill_frac"] = _ratio(
        counts["accelerator.batched.fat_train_chips"], calls * counts["campaign.fat_batch"])
    hits, lookups = (counts["accelerator.batched.lowering_hits"],
                     counts["accelerator.batched.lowering_calls"])
    values["accelerator.batched.lowering_hits"] = hits
    values["accelerator.batched.lowering_calls"] = lookups
    values["accelerator.batched.lowering_hit_frac"] = _ratio(hits, lookups)
    values["accelerator.batched.lowering_cache_mb"] = (
        counts["accelerator.batched.lowering_peak_bytes"] / 2**20)

    values["campaign.chunks"] = counts["campaign.chunks"]
    first_commits: List[float] = []
    gaps: List[float] = []
    wait = 0.0
    for run in _outermost(spans, ["campaign.run"]):
        start, end = spans[run][1], spans[run][2]
        appends = sorted(spans[i][1] for i in _outermost(spans, ["campaign.store.append"], run))
        if appends:
            first_commits.append(appends[0] - start)
            gaps.extend(b - a for a, b in zip(appends, appends[1:]))
        covered = sum(spans[i][2] - spans[i][1] for i in _outermost(spans, _RUN_OVERHEAD, run))
        wait += (end - start) - covered
    values["campaign.first_commit_s"] = statistics.median(first_commits) if first_commits else 0.0
    values["campaign.commit_gap_s"] = statistics.median(gaps) if gaps else 0.0
    values["campaign.wait_s"] = wait
    values["campaign.store.appends"] = count("campaign.store.append")

    phases = sum(span[2] - span[1] for span in spans if span[3] < 0 and span[0] in PHASES)
    values["bench.phase_coverage_frac"] = _ratio(phases, traced_wall_s)
    return values


def largest_self_time(dump: Dict[str, Any]) -> Tuple[str, float]:
    """The layer span name with the largest summed self time."""
    spans = dump["spans"]
    by_name: Dict[str, float] = defaultdict(float)
    for span, value in zip(spans, self_times(spans)):
        if span[0] not in PHASES:
            by_name[span[0]] += value
    return max(by_name.items(), key=lambda item: item[1])


def write_dump(recorder: SpanRecorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.dump(), handle)
