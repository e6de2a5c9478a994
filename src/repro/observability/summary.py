"""Trace summarization: the ``repro-reduce trace`` per-phase breakdown.

Takes the events of a campaign trace — a merged Chrome trace JSON, a raw
shard, or a whole trace directory — and attributes wall-clock per phase, per
worker process and per mitigation strategy:

* **Phases** are the engine's top-level spans (``campaign.resume_scan`` /
  ``campaign.triage`` / ``campaign.plan`` / ``campaign.execute``), reported
  as a share of the summed ``campaign.run`` wall-clock.
* **Workers** are the processes that executed ``campaign.chunk`` spans,
  keyed by ``(hostname, pid)`` so cross-host workers of a distributed
  campaign never collide (old single-host shards without a host field fold
  into one anonymous host); a worker's utilization is its busy (in-span)
  time over the execute-phase wall-clock, which makes pool starvation
  visible at a glance.
* **Strategies** aggregate chunk time and chip counts by the ``strategy``
  span attribute, giving per-strategy chips/s straight from the trace.
* **Faults** count the supervisor's recovery instants (worker deaths, chunk
  retries, quarantined chunks) plus retried chunk executions (``campaign.chunk``
  spans with ``attempt > 0``), so a trace shows at a glance whether the
  campaign had to recover and how often.

The ASCII rendering reuses :func:`repro.analysis.ascii_plot.bar_table`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.analysis.ascii_plot import bar_table
from repro.observability.tracer import (
    CHROME_TRACE_NAME,
    merge_shards,
    read_shard,
)
from repro.utils.timing import format_duration

PathLike = Union[str, Path]

#: Engine spans that partition one campaign run's wall-clock.
PHASE_SPANS = (
    "campaign.resume_scan",
    "campaign.triage",
    "campaign.plan",
    "campaign.execute",
)


def _from_chrome(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Normalize a Chrome trace-event document back to internal events."""
    events: List[Dict[str, Any]] = []
    for entry in document.get("traceEvents", []):
        # The chrome export stores the host in args (pids must stay ints
        # there); lift it back out into the event's host field.
        attrs = dict(entry.get("args", {}) or {})
        host = attrs.pop("host", None)
        event: Dict[str, Any] = {
            "name": entry.get("name", ""),
            "start": float(entry.get("ts", 0.0)) / 1e6,
            "pid": int(entry.get("pid", 0)),
            "attrs": attrs,
        }
        if host:
            event["host"] = str(host)
        if entry.get("ph") == "X":
            event["duration"] = float(entry.get("dur", 0.0)) / 1e6
        events.append(event)
    return events


def load_trace(path: PathLike) -> List[Dict[str, Any]]:
    """Load trace events from a directory, a merged trace JSON, or a shard.

    A directory is merged from its shards (falling back to its ``trace.json``
    when no shards remain); a ``.jsonl`` file is read as one shard; any other
    file is parsed as a Chrome trace-event document.
    """
    path = Path(path)
    if path.is_dir():
        events = merge_shards(path)
        if not events and (path / CHROME_TRACE_NAME).exists():
            path = path / CHROME_TRACE_NAME
        else:
            return events
    if not path.exists():
        raise FileNotFoundError(f"no trace at {path}")
    if path.suffix == ".jsonl":
        return read_shard(path)
    with path.open("r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path} is not a trace document")
    return _from_chrome(document)


def _duration_events(events: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [e for e in events if e.get("name") == name and e.get("duration") is not None]


def summarize_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate trace events into the per-phase/worker/strategy breakdown."""
    runs = _duration_events(events, "campaign.run")
    total_wall = sum(float(e["duration"]) for e in runs)
    phases: List[Dict[str, Any]] = []
    accounted = 0.0
    for phase in PHASE_SPANS:
        spans = _duration_events(events, phase)
        phase_total = sum(float(e["duration"]) for e in spans)
        accounted += phase_total
        phases.append(
            {
                "phase": phase.split(".", 1)[1],
                "seconds": phase_total,
                "count": len(spans),
                "percent": 100.0 * phase_total / total_wall if total_wall else 0.0,
            }
        )
    execute_total = next(p["seconds"] for p in phases if p["phase"] == "execute")

    chunks = _duration_events(events, "campaign.chunk")
    workers: Dict[Tuple[str, int], Dict[str, Any]] = {}
    strategies: Dict[str, Dict[str, Any]] = {}
    for chunk in chunks:
        attrs = chunk.get("attrs", {}) or {}
        seconds = float(chunk["duration"])
        chips = int(attrs.get("chips", 0))
        # Key by (host, pid): pids collide across the hosts of a distributed
        # campaign.  Legacy shards without a host field share the "" host.
        worker = workers.setdefault(
            (str(chunk.get("host", "") or ""), int(chunk.get("pid", 0))),
            {"busy_seconds": 0.0, "chunks": 0, "chips": 0},
        )
        worker["busy_seconds"] += seconds
        worker["chunks"] += 1
        worker["chips"] += chips
        name = str(attrs.get("strategy", "?"))
        strategy = strategies.setdefault(name, {"seconds": 0.0, "chunks": 0, "chips": 0})
        strategy["seconds"] += seconds
        strategy["chunks"] += 1
        strategy["chips"] += chips
    worker_rows = [
        {
            "host": host,
            "pid": pid,
            "worker": f"{host}:{pid}" if host else f"pid {pid}",
            **stats,
            "utilization": stats["busy_seconds"] / execute_total if execute_total else 0.0,
        }
        for (host, pid), stats in sorted(workers.items())
    ]
    strategy_rows = [
        {
            "strategy": name,
            **stats,
            "chips_per_second": stats["chips"] / stats["seconds"] if stats["seconds"] else 0.0,
        }
        for name, stats in sorted(strategies.items())
    ]
    chip_events = [e for e in events if e.get("name") == "campaign.chip"]
    # FAT eval-vs-train attribution: checkpoint-eval passes vs training-step
    # spans inside the batched trainer, the split the eval path
    # (step-deduplicated checkpoints) is meant to move.
    train_spans = _duration_events(events, "fat.train_steps")
    eval_spans = _duration_events(events, "fat.eval_checkpoint")
    fat = {
        "train_seconds": sum(float(e["duration"]) for e in train_spans),
        "train_spans": len(train_spans),
        "eval_seconds": sum(float(e["duration"]) for e in eval_spans),
        "eval_spans": len(eval_spans),
    }
    # Fault-recovery instants from the supervising executor: how often the
    # campaign had to recover, visible straight from the trace.
    faults = {
        "worker_deaths": sum(
            1 for e in events if e.get("name") == "campaign.worker_death"
        ),
        "chunk_retries": sum(
            1 for e in events if e.get("name") == "campaign.chunk_retry"
        ),
        "chunks_quarantined": sum(
            1 for e in events if e.get("name") == "campaign.chunk_quarantined"
        ),
        "retried_chunk_executions": sum(
            1
            for e in chunks
            if int((e.get("attrs", {}) or {}).get("attempt", 0) or 0) > 0
        ),
    }
    return {
        "total_wall_seconds": total_wall,
        "runs": len(runs),
        "accounted_seconds": accounted,
        "accounted_percent": 100.0 * accounted / total_wall if total_wall else 0.0,
        "phases": phases,
        "workers": worker_rows,
        "strategies": strategy_rows,
        "chips_committed": len(chip_events),
        "faults": faults,
        "fat": fat,
    }


def render_trace_summary(summary: Dict[str, Any], width: int = 40) -> str:
    """Render :func:`summarize_trace` output as an ASCII breakdown."""
    lines: List[str] = []
    total = summary["total_wall_seconds"]
    lines.append(
        f"campaign trace: {summary['runs']} run(s), "
        f"wall-clock {format_duration(total) if total else '0s'}, "
        f"{summary['chips_committed']} chip(s) committed, "
        f"{summary['accounted_percent']:.1f}% of wall-clock in phases"
    )
    lines.append("")
    lines.append("Per-phase breakdown (% of campaign wall-clock):")
    lines.append(
        bar_table(
            [
                (
                    row["phase"],
                    row["percent"],
                    f"{row['percent']:5.1f}%  {format_duration(row['seconds']) if row['seconds'] else '0s'}"
                    f"  ({row['count']}x)",
                )
                for row in summary["phases"]
            ],
            width=width,
            scale_max=100.0,
        )
    )
    if summary["workers"]:
        lines.append("")
        lines.append("Per-worker utilization (busy / execute wall-clock):")
        lines.append(
            bar_table(
                [
                    (
                        str(row.get("worker") or f"pid {row['pid']}"),
                        100.0 * row["utilization"],
                        f"{100.0 * row['utilization']:5.1f}%  "
                        f"{row['chips']} chips in {row['chunks']} chunk(s)",
                    )
                    for row in summary["workers"]
                ],
                width=width,
                scale_max=100.0,
            )
        )
    fat = summary.get("fat", {})
    fat_total = fat.get("train_seconds", 0.0) + fat.get("eval_seconds", 0.0)
    if fat_total:
        eval_share = 100.0 * fat.get("eval_seconds", 0.0) / fat_total
        lines.append("")
        lines.append(
            "FAT eval vs train: "
            f"eval {format_duration(fat['eval_seconds']) if fat['eval_seconds'] else '0s'} "
            f"({eval_share:.1f}%) in {fat['eval_spans']} checkpoint pass(es), "
            f"train {format_duration(fat['train_seconds']) if fat['train_seconds'] else '0s'} "
            f"({100.0 - eval_share:.1f}%) in {fat['train_spans']} step span(s)"
        )
    faults = summary.get("faults", {})
    if any(faults.values()):
        lines.append("")
        lines.append(
            "Fault recovery: "
            f"{faults.get('worker_deaths', 0)} worker death(s), "
            f"{faults.get('chunk_retries', 0)} chunk retry(ies) "
            f"({faults.get('retried_chunk_executions', 0)} re-execution(s)), "
            f"{faults.get('chunks_quarantined', 0)} chunk(s) quarantined"
        )
    if summary["strategies"]:
        lines.append("")
        lines.append("Per-strategy attribution (chunk execution time):")
        lines.append(
            bar_table(
                [
                    (
                        row["strategy"],
                        row["seconds"],
                        f"{format_duration(row['seconds']) if row['seconds'] else '0s'}  "
                        f"{row['chips']} chips, {row['chips_per_second']:.2f} chips/s",
                    )
                    for row in summary["strategies"]
                ],
                width=width,
            )
        )
    return "\n".join(lines)
