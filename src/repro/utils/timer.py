"""Human-readable duration text."""

from __future__ import annotations

__all__ = ["format_duration"]


def format_duration(seconds: float) -> str:
    """Render a duration as ``2h 34m 11s`` style text.

    Durations under a minute once rounded to hundredths keep two decimals
    (``37.25s``); longer ones use whole seconds across day/hour/minute
    components, dropping leading zero components
    (``9251`` → ``2h 34m 11s``), so ``59.996`` reads ``1m 0s``, never
    ``60.00s``.  The shared helper behind every human-facing duration in
    progress reports.
    """
    if seconds < 0:
        return f"-{format_duration(-seconds)}"
    if round(seconds, 2) < 60:
        return f"{seconds:.2f}s"
    remaining = int(round(seconds))
    parts = []
    for label, size in (("d", 86400), ("h", 3600), ("m", 60)):
        value, remaining = divmod(remaining, size)
        if value or parts:
            parts.append(f"{value}{label}")
    parts.append(f"{remaining}s")
    return " ".join(parts)
