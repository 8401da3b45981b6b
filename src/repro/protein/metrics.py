"""Structure-quality metrics and improvement comparison.

The paper evaluates every design with three AlphaFold confidence metrics:

* **pLDDT** (0-100, higher is better) — per-residue confidence averaged over
  the complex.
* **pTM** (0-1, higher is better) — predicted TM-score of the complex.
* **inter-chain pAE** (angstroms, lower is better) — predicted aligned error
  between the receptor and the peptide, the binding-confidence proxy.

Stage 6 of the pipeline compares the new metrics against the previous
iteration and keeps cycling only when they improve.  The comparison used
here is a weighted composite so that a large win on one metric can offset a
marginal loss on another, with an optional strict mode requiring every metric
to improve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.exceptions import ProteinError

__all__ = ["QualityMetrics", "composite_score", "is_improvement", "aggregate_metrics"]

#: Bounds used to normalise each metric into [0, 1] for the composite score.
_PLDDT_RANGE = (30.0, 100.0)
_PTM_RANGE = (0.0, 1.0)
_PAE_RANGE = (0.0, 32.0)


@dataclass(frozen=True)
class QualityMetrics:
    """AlphaFold-style confidence metrics for one predicted complex."""

    plddt: float
    ptm: float
    interchain_pae: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.plddt <= 100.0:
            raise ProteinError(f"pLDDT out of range: {self.plddt}")
        if not 0.0 <= self.ptm <= 1.0:
            raise ProteinError(f"pTM out of range: {self.ptm}")
        if not self.interchain_pae >= 0.0:
            raise ProteinError(f"inter-chain pAE must be non-negative: {self.interchain_pae}")

    def as_dict(self) -> Dict[str, float]:
        return {
            "plddt": self.plddt,
            "ptm": self.ptm,
            "interchain_pae": self.interchain_pae,
        }

    def composite(self) -> float:
        """Convenience wrapper around :func:`composite_score`."""
        return composite_score(self)


def _normalise(value: float, bounds: tuple[float, float], invert: bool = False) -> float:
    low, high = bounds
    scaled = (value - low) / (high - low)
    scaled = min(max(scaled, 0.0), 1.0)
    return 1.0 - scaled if invert else scaled


def _normalised_weights(weights: tuple[float, float, float]) -> tuple[float, ...]:
    if len(weights) != 3:
        raise ProteinError("weights must have exactly three entries")
    if any(weight < 0 for weight in weights) or sum(weights) <= 0:
        raise ProteinError("weights must be non-negative and sum to a positive value")
    return tuple(weight / sum(weights) for weight in weights)


#: The composite's default weights, normalised once.
_DEFAULT_WEIGHTS = (0.4, 0.35, 0.25)
_DEFAULT_NORMALISED = _normalised_weights(_DEFAULT_WEIGHTS)


def composite_score(
    metrics: QualityMetrics,
    weights: tuple[float, float, float] = _DEFAULT_WEIGHTS,
) -> float:
    """Weighted composite of the three metrics, in ``[0, 1]`` (higher better).

    Default weights emphasise pLDDT (the per-residue confidence), then pTM,
    then the inverted inter-chain pAE, mirroring the relative prominence the
    paper gives them.
    """
    w_plddt, w_ptm, w_pae = (
        _DEFAULT_NORMALISED if weights is _DEFAULT_WEIGHTS else _normalised_weights(weights)
    )
    return (
        w_plddt * _normalise(metrics.plddt, _PLDDT_RANGE)
        + w_ptm * _normalise(metrics.ptm, _PTM_RANGE)
        + w_pae * _normalise(metrics.interchain_pae, _PAE_RANGE, invert=True)
    )


def is_improvement(
    new: QualityMetrics,
    previous: Optional[QualityMetrics],
    *,
    min_delta: float = 0.0,
    strict: bool = False,
) -> bool:
    """Whether ``new`` improves on ``previous`` (Stage 6's accept test).

    Parameters
    ----------
    new, previous:
        The candidate and reference metrics.  A ``previous`` of ``None``
        always counts as an improvement (the first iteration has nothing to
        compare against).
    min_delta:
        Minimum composite-score gain required to accept.
    strict:
        When true, *every* metric must individually improve (higher pLDDT,
        higher pTM, lower pAE); the composite threshold still applies.
    """
    if previous is None:
        return True
    if strict:
        individually_better = (
            new.plddt >= previous.plddt
            and new.ptm >= previous.ptm
            and new.interchain_pae <= previous.interchain_pae
        )
        if not individually_better:
            return False
    return composite_score(new) - composite_score(previous) > min_delta


def aggregate_metrics(metrics: Iterable[QualityMetrics]) -> Dict[str, Dict[str, float]]:
    """Median / mean / std per metric over a cohort of designs.

    This is the aggregation behind each bar of Figs 2 and 3 (medians with
    half-standard-deviation error bars).
    """
    values = list(metrics)
    if not values:
        raise ProteinError("cannot aggregate an empty metric collection")
    result: Dict[str, Dict[str, float]] = {}
    for field_name in ("plddt", "ptm", "interchain_pae"):
        data = np.array([getattr(metric, field_name) for metric in values], dtype=float)
        result[field_name] = {
            "median": float(np.median(data)),
            "mean": float(data.mean()),
            "std": float(data.std(ddof=0)),
            "half_std": float(data.std(ddof=0) / 2.0),
            "count": int(data.size),
        }
    return result
