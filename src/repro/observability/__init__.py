"""Observability layer: span tracing + metrics for the campaign pipeline.

Two process-wide singletons back every instrumentation site:

* :data:`trace` — a span tracer (``with trace.span("campaign.triage"): ...``)
  that is a no-op until :meth:`~repro.observability.tracer.Tracer.enable` is
  called with a directory, then writes per-process JSONL shards mergeable
  into a Chrome trace-event JSON (Perfetto / ``chrome://tracing``).
* :data:`metrics` — a counter/gauge/histogram registry snapshotting to JSON.

Neither touches model numerics or RNG streams: campaign results are
bit-identical with observability on or off.
"""

from repro.utils.lazy import lazy_exports

# The registry shares its submodule's name: bind it before anything imports
# ``repro.observability.metrics`` and the import system binds the module here.
from repro.observability.metrics import metrics  # noqa: F401

__getattr__, __all__ = lazy_exports(__name__, {
    ".metrics": (
        "MERGED_METRICS_NAME",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "merge_metric_shards",
        "metrics",
        "write_merged_metrics",
    ),
    ".summary": ("load_trace", "render_trace_summary", "summarize_trace"),
    ".tracer": (
        "CHROME_TRACE_NAME",
        "Span",
        "Tracer",
        "merge_shards",
        "read_shard",
        "to_chrome_trace",
        "trace",
        "write_chrome_trace",
    ),
})
