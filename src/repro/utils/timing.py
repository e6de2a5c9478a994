"""Human-readable durations for campaign logs and reports."""

from __future__ import annotations


def format_duration(seconds: float) -> str:
    """Format a duration in seconds as a short human-readable string."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    # Round to each format's display precision *before* choosing the unit and
    # splitting, so values just under a boundary carry instead of rendering
    # impossible components ("1000.0ms", "60.00s", "1m60.0s", "59m60.0s").
    if seconds < 1e-3 and round(seconds * 1e6) < 1000:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0 and round(seconds * 1e3, 1) < 1000.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60.0 and round(seconds, 2) < 60.0:
        return f"{seconds:.2f}s"
    if seconds < 3600.0:
        total_tenths = round(seconds * 10.0)
        minutes, tenths = divmod(total_tenths, 600)
        if minutes < 60:
            return f"{minutes}m{tenths / 10.0:04.1f}s"
    total_minutes = round(seconds / 60.0)
    hours, minutes = divmod(total_minutes, 60)
    return f"{hours}h{minutes:02d}m"
