"""The relative-change and net-delta definitions behind Table I.

Table I reports "net delta" percentages between the first and last design
cycles; this module defines them once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["net_delta_percent", "relative_change"]


def relative_change(initial: float, final: float) -> float:
    """Relative change ``(final - initial) / |initial|``.

    Returns ``0.0`` when ``initial`` is zero and ``final`` equals it, and
    ``inf``/``-inf`` when ``initial`` is zero but ``final`` differs, mirroring
    the IEEE behaviour users expect from NumPy.
    """
    if initial == 0.0:
        if final == 0.0:
            return 0.0
        return float(np.inf) if final > 0 else float(-np.inf)
    return (final - initial) / abs(initial)


def net_delta_percent(initial: float, final: float) -> float:
    """Net improvement of a metric between the first and last cycle, in %.

    Table I reports "Net Δ (%)" per metric: the change of the cohort median
    from the starting structures to the final design cycle, expressed as a
    percentage of the starting value.
    """
    return 100.0 * relative_change(initial, final)
