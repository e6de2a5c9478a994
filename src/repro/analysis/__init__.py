"""Result analysis: Pareto fronts, statistics and terminal plotting."""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".pareto": ("pareto_mask",),
    ".statistics": (
        "SummaryStatistics",
        "summarize",
        "mean_confidence_interval",
        "bootstrap_mean_interval",
        "relative_change",
    ),
    ".ascii_plot": ("line_plot", "scatter_plot", "histogram"),
})
