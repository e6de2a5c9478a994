"""Span tracer: where does campaign wall-clock actually go?

The tracer is a process-wide singleton (:data:`trace`) with a context-manager
API::

    from repro.observability import trace

    with trace.span("campaign.triage", chips=24):
        ...

* **Disabled** (the default), ``span()`` returns a shared no-op singleton —
  no span object, no record, no I/O.  The only cost at an instrumentation
  site is one attribute check, which keeps the hot paths' disabled overhead
  unmeasurable (the tracer-overhead benchmark pair in
  ``benchmarks/test_bench_campaign.py`` pins this).
* **Enabled** (:meth:`Tracer.enable` with a directory), every finished span
  is appended immediately — one JSON line per span, flushed but not fsynced —
  to a per-process shard ``trace-<host>-<pid>.jsonl``.  Shards are keyed by
  ``(hostname, pid)`` because distributed campaigns collect shards from
  several machines into one directory, where a bare pid collides; old
  single-host ``trace-<pid>.jsonl`` shards still match the merge glob and
  stay readable.  Campaign worker processes write their *own* shards: the
  shard path is re-derived whenever ``os.getpid()`` changes, so
  ``fork``-started workers that inherit an enabled tracer never interleave
  writes into the parent's shard, and every socket worker re-enables the
  tracer on a private directory whose shard it ships home at campaign end.
  Immediate per-span writes are what make traces kill-tolerant: a killed
  campaign's shard holds every span that finished before the kill.

Spans record ``(name, start, duration, pid, attrs)`` with
``time.perf_counter()`` timestamps (CLOCK_MONOTONIC on Linux, so shards from
concurrent processes share a timebase).  :func:`merge_shards` combines all
shards of a directory into one event list and :func:`write_chrome_trace`
renders them as a Chrome trace-event JSON loadable in Perfetto /
``chrome://tracing``.

Tracing never touches model numerics, RNG streams or stored results:
campaigns are bit-identical with tracing on or off.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.utils.hostinfo import host_tag

PathLike = Union[str, Path]

SHARD_PREFIX = "trace-"
SHARD_SUFFIX = ".jsonl"
CHROME_TRACE_NAME = "trace.json"


class _DisabledSpan:
    """Shared no-op span: the entire disabled-tracer span path."""

    __slots__ = ()

    def __enter__(self) -> "_DisabledSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_DisabledSpan":
        return self


_DISABLED_SPAN = _DisabledSpan()


class Span:
    """One live span; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start: Optional[float] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach (or override) attributes while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self._start is not None:
            self._tracer._record(
                self.name, self._start, time.perf_counter() - self._start, self.attrs
            )
        return False


class Tracer:
    """Per-process span recorder writing one JSONL shard per pid."""

    def __init__(self) -> None:
        self.enabled = False
        self.directory: Optional[Path] = None
        self._handle: Optional[TextIO] = None
        self._pid: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    def enable(self, directory: PathLike) -> None:
        """Start recording spans to per-process shards under ``directory``."""
        self.disable()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.enabled = True

    def disable(self) -> None:
        """Stop recording and close the current shard (if any)."""
        self.enabled = False
        self.directory = None
        self._close()

    def _close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close failures are benign
                pass
        self._handle = None
        self._pid = None

    def shard_path(self) -> Optional[Path]:
        """This process's shard path (None while disabled)."""
        if self.directory is None:
            return None
        return (
            self.directory
            / f"{SHARD_PREFIX}{host_tag()}-{os.getpid()}{SHARD_SUFFIX}"
        )

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing one named span (no-op singleton when disabled)."""
        if not self.enabled:
            return _DISABLED_SPAN
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration event (e.g. one chip committed to the store)."""
        if not self.enabled:
            return
        self._record(name, time.perf_counter(), None, attrs)

    def _record(
        self,
        name: str,
        start: float,
        duration: Optional[float],
        attrs: Dict[str, Any],
    ) -> None:
        if not self.enabled or self.directory is None:
            return
        pid = os.getpid()
        if self._handle is None or pid != self._pid:
            # First record in this process — or a fork-inherited tracer whose
            # handle still points at the parent's shard.  Either way, (re)open
            # this pid's own shard so concurrent processes never interleave.
            self._close()
            self._handle = self.shard_path().open("a", encoding="utf-8")
            self._pid = pid
        event: Dict[str, Any] = {
            "name": name,
            "start": start,
            "pid": pid,
            "host": host_tag(),
        }
        if duration is not None:
            event["duration"] = duration
        if attrs:
            event["attrs"] = attrs
        # One line per span, flushed immediately (no fsync): everything that
        # finished before a kill is on disk, and a resumed run appends.
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def flush(self) -> None:
        """Flush the current shard handle (writes are already per-span)."""
        if self._handle is not None:
            self._handle.flush()


#: The process-wide tracer used by all instrumentation sites.
trace = Tracer()


# ---------------------------------------------------------------------------
# Shard merging / Chrome trace export
# ---------------------------------------------------------------------------


def read_shard(path: PathLike) -> List[Dict[str, Any]]:
    """Events of one shard; unreadable lines (torn writes) are skipped."""
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "name" in event and "start" in event:
                events.append(event)
    return events


def merge_shards(directory: PathLike) -> List[Dict[str, Any]]:
    """All events of a trace directory's shards, sorted by start time."""
    directory = Path(directory)
    events: List[Dict[str, Any]] = []
    for shard in sorted(directory.glob(f"{SHARD_PREFIX}*{SHARD_SUFFIX}")):
        events.extend(read_shard(shard))
    events.sort(key=lambda event: float(event["start"]))
    return events


def to_chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Render merged events as a Chrome trace-event document.

    Spans become complete ("X") events and instants become instant ("i")
    events; timestamps are microseconds relative to the earliest event, so
    the trace starts at t=0 in Perfetto / ``chrome://tracing``.
    """
    t0 = min((float(event["start"]) for event in events), default=0.0)
    trace_events: List[Dict[str, Any]] = []
    for event in events:
        pid = int(event.get("pid", 0))
        # Chrome trace pids must be integers, so the host travels in args
        # (restored by the summary loader when reading a merged trace back).
        args = dict(event.get("attrs", {}) or {})
        host = event.get("host")
        if host:
            args["host"] = str(host)
        entry: Dict[str, Any] = {
            "name": str(event["name"]),
            "cat": str(event["name"]).split(".", 1)[0],
            "ts": (float(event["start"]) - t0) * 1e6,
            "pid": pid,
            "tid": pid,
            "args": args,
        }
        duration = event.get("duration")
        if duration is None:
            entry["ph"] = "i"
            entry["s"] = "p"  # process-scoped instant
        else:
            entry["ph"] = "X"
            entry["dur"] = float(duration) * 1e6
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    directory: PathLike, output: Optional[PathLike] = None
) -> Path:
    """Merge a trace directory's shards into one Chrome trace JSON file.

    Returns the path written (``<directory>/trace.json`` by default).
    Merging is idempotent: re-running after more shards (or more spans)
    landed simply rewrites the merged view.
    """
    directory = Path(directory)
    output_path = Path(output) if output is not None else directory / CHROME_TRACE_NAME
    document = to_chrome_trace(merge_shards(directory))
    tmp = output_path.with_name(output_path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp, output_path)
    return output_path
