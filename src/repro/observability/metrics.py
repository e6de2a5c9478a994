"""Metrics registry: counters, gauges and histograms for the campaign pipeline.

The registry (:data:`metrics`, a process-wide singleton) is always
functional — engine bookkeeping such as the heartbeat's chips-completed
counter costs one integer add per chip and needs no opt-in.  The ``enabled``
flag gates only the *hot-path* observations (per-GEMM timers, dedup
counters) whose guard must stay a single attribute check when
observability is off, plus the per-process JSON snapshot shards.

Instruments::

    metrics.counter("campaign.chips_completed", strategy="fat").inc()
    metrics.gauge("campaign.phase").set("execute")
    metrics.histogram("store.fsync_seconds").observe(0.0021)
    with metrics.timer("fat.eval.im2col_seconds"): ...   # no-op when disabled

Label kwargs are folded into the metric key (``name{k=v,...}``), so a sweep's
per-strategy throughput counters coexist in one registry.  Snapshots are
plain JSON (:meth:`MetricsRegistry.snapshot`); campaign workers ship per-process
``metrics-<host>-<pid>.json`` shards (host-qualified so cross-host shards
never collide; old ``metrics-<pid>.json`` shards still merge) which
:func:`merge_metric_shards` combines — counters sum, gauges keep the latest
write, histograms merge their moments.

Like the tracer, the registry never touches model numerics or RNG streams:
results are bit-identical with metrics on or off.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.utils.hostinfo import host_tag

PathLike = Union[str, Path]

METRICS_SHARD_PREFIX = "metrics-"
METRICS_SHARD_SUFFIX = ".json"
MERGED_METRICS_NAME = "metrics.json"

# Histograms keep at most this many raw samples for percentile estimates;
# moments (count/total/min/max) stay exact beyond the cap.
HISTOGRAM_SAMPLE_CAP = 4096


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins value (numbers or short strings, e.g. a phase name)."""

    __slots__ = ("value", "updated_at")

    def __init__(self) -> None:
        self.value: Any = None
        self.updated_at: float = 0.0

    def set(self, value: Any) -> None:
        self.value = value
        self.updated_at = time.time()

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "updated_at": self.updated_at}


class Histogram:
    """Streaming distribution: exact moments plus a capped sample reservoir."""

    __slots__ = ("count", "total", "min", "max", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile from the retained samples (0 <= q <= 100)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[index]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        room = HISTOGRAM_SAMPLE_CAP - len(self.samples)
        if room > 0:
            self.samples.extend(other.samples[:room])


class _DisabledTimer:
    """Shared no-op timer for the disabled registry."""

    __slots__ = ()

    def __enter__(self) -> "_DisabledTimer":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_DISABLED_TIMER = _DisabledTimer()


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._histogram.observe(time.perf_counter() - self._start)
        return False


def _key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Named counters/gauges/histograms with JSON snapshots."""

    def __init__(self) -> None:
        self.enabled = False
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        return histogram

    def timer(self, name: str, **labels: Any):
        """Context manager observing its duration into a histogram.

        Returns the shared no-op when the registry is disabled, so hot paths
        pay one attribute check and nothing else.
        """
        if not self.enabled:
            return _DISABLED_TIMER
        return _Timer(self.histogram(name, **labels))

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-compatible mapping."""
        out: Dict[str, Any] = {}
        for key, counter in self._counters.items():
            out[key] = counter.snapshot()
        for key, gauge in self._gauges.items():
            out[key] = gauge.snapshot()
        for key, histogram in self._histograms.items():
            out[key] = histogram.snapshot()
        return out

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def shard_path(self, directory: PathLike) -> Path:
        return (
            Path(directory)
            / f"{METRICS_SHARD_PREFIX}{host_tag()}-{os.getpid()}{METRICS_SHARD_SUFFIX}"
        )

    def shard_payload(self) -> Dict[str, Any]:
        """This process's shard content (also shipped over the campaign socket)."""
        return {
            "host": host_tag(),
            "pid": os.getpid(),
            "written_at": time.time(),
            "metrics": self.snapshot(),
            # Raw samples ride along so merged histograms keep percentiles.
            "histogram_samples": {
                key: histogram.samples for key, histogram in self._histograms.items()
            },
        }

    def write_shard(self, directory: PathLike) -> Path:
        """Write this process's snapshot shard (atomic replace, safe to re-run)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(directory)
        payload = self.shard_payload()
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        return path


#: The process-wide registry used by all instrumentation sites.
metrics = MetricsRegistry()


def merge_metric_shards(directory: PathLike) -> Dict[str, Any]:
    """Merge every ``metrics-<pid>.json`` shard of a directory.

    Counters sum across processes, gauges keep the most recent write, and
    histograms merge moments (plus capped samples for the percentiles).
    """
    directory = Path(directory)
    counters: Dict[str, int] = {}
    gauges: Dict[str, Tuple[float, Any]] = {}
    histograms: Dict[str, Histogram] = {}
    for shard in sorted(directory.glob(f"{METRICS_SHARD_PREFIX}*{METRICS_SHARD_SUFFIX}")):
        try:
            with shard.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        samples = payload.get("histogram_samples", {})
        for key, snap in payload.get("metrics", {}).items():
            kind = snap.get("type")
            if kind == "counter":
                counters[key] = counters.get(key, 0) + int(snap.get("value", 0))
            elif kind == "gauge":
                stamped = (float(snap.get("updated_at", 0.0)), snap.get("value"))
                if key not in gauges or stamped[0] >= gauges[key][0]:
                    gauges[key] = stamped
            elif kind == "histogram":
                incoming = Histogram()
                incoming.count = int(snap.get("count", 0))
                incoming.total = float(snap.get("total", 0.0))
                incoming.min = snap.get("min")
                incoming.max = snap.get("max")
                incoming.samples = [float(v) for v in samples.get(key, [])]
                merged = histograms.get(key)
                if merged is None:
                    histograms[key] = incoming
                else:
                    merged.merge(incoming)
    out: Dict[str, Any] = {}
    for key, value in counters.items():
        out[key] = {"type": "counter", "value": value}
    for key, (updated_at, value) in gauges.items():
        out[key] = {"type": "gauge", "value": value, "updated_at": updated_at}
    for key, histogram in histograms.items():
        out[key] = histogram.snapshot()
    return out


def write_merged_metrics(
    directory: PathLike, output: Optional[PathLike] = None
) -> Path:
    """Merge metric shards and write the combined ``metrics.json``."""
    directory = Path(directory)
    output_path = Path(output) if output is not None else directory / MERGED_METRICS_NAME
    merged = merge_metric_shards(directory)
    tmp = output_path.with_name(output_path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
    os.replace(tmp, output_path)
    return output_path
