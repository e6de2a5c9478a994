"""Helpers shared by the benchmark harness modules."""

from __future__ import annotations

# Rounds of every benchmark CI gates on a median regression: a median needs
# several samples, and five keep the gated job well inside its timeout.
GATED_ROUNDS = 5


def run_once(benchmark, func, *args, **kwargs):
    """Execute ``func`` exactly once under pytest-benchmark timing.

    The figure-level benchmarks each wrap tens of retraining runs, so a single
    timed execution is both sufficient and necessary to keep the harness fast.
    No CI gate compares these single samples.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_gated(benchmark, func, *args, **kwargs):
    """Execute ``func`` for :data:`GATED_ROUNDS` timed rounds; returns the last result.

    For benchmarks whose median CI compares against the main-branch baseline
    (``--benchmark-compare-fail=median:30%``).
    """
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=GATED_ROUNDS, iterations=1
    )
