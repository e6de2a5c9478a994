"""Reporting helpers for retraining campaigns.

These render the comparison of Fig. 3 as plain-text tables and CSV rows so
that experiment scripts and benchmarks can print the same information the
paper plots.
"""

from __future__ import annotations

import io
from typing import Iterable, Sequence

from repro.core.reduce import CampaignResult


def campaign_summary_table(campaigns: Sequence[CampaignResult]) -> str:
    """Fig. 3f as a text table: one row per policy."""
    if not campaigns:
        raise ValueError("no campaigns to summarise")
    headers = [
        "policy",
        "avg epochs/chip",
        "total epochs",
        "% chips meeting constraint",
        "mean accuracy",
        "worst accuracy",
    ]
    rows = []
    for campaign in campaigns:
        summary = campaign.summary()
        rows.append(
            [
                str(summary["policy"]),
                f"{summary['average_epochs']:.4f}",
                f"{summary['total_epochs']:.2f}",
                f"{summary['percent_meeting_constraint']:.1f}",
                f"{summary['mean_accuracy']:.4f}",
                f"{summary['worst_accuracy']:.4f}",
            ]
        )
    return format_table(headers, rows)


def campaign_scatter_csv(campaign: CampaignResult) -> str:
    """Per-chip (accuracy, epochs) points of one campaign as CSV text."""
    buffer = io.StringIO()
    buffer.write("chip_id,fault_rate,accuracy,epochs,meets_constraint\n")
    for point in campaign.scatter_points():
        buffer.write(
            f"{point['chip_id']},{point['fault_rate']:.6f},{point['accuracy']:.6f},"
            f"{point['epochs']:.6f},{int(point['meets_constraint'])}\n"
        )
    return buffer.getvalue()


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render a simple fixed-width text table."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
