"""Trajectory and cycle records.

The paper counts work in *trajectories*: one trajectory is one structure
prediction of a candidate design (CONT-V examined 16, IM-RP 23 for the
four-domain experiment; the expanded campaign examined 354).  A *cycle
result* groups the trajectories evaluated during one design cycle of one
pipeline together with the accepted outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import PipelineError
from repro.protein.metrics import QualityMetrics

__all__ = ["Trajectory", "CycleResult"]


@dataclass(frozen=True)
class Trajectory:
    """One structure-prediction evaluation of a candidate design.

    Attributes
    ----------
    trajectory_id:
        Unique id within the campaign (``"<pipeline_uid>.c<cycle>.r<retry>"``).
    pipeline_uid / target:
        Where the evaluation happened and for which design target.
    cycle:
        Design-cycle index (0-based).
    retry_index:
        0 for the top-ranked candidate, >0 for the alternative-selection
        retries of Stage 6.
    sequence_name / sequence:
        The evaluated receptor design.
    metrics:
        AlphaFold-style confidence metrics of the prediction.
    fitness:
        The latent landscape fitness (surrogate-internal; exposed for
        analysis only, never used by the protocol).
    accepted:
        Whether Stage 6 accepted this design as the new cycle best.
    energy_total:
        Coarse scoring-function energy, when the scoring stage ran.
    is_subpipeline:
        Whether the owning pipeline was adaptively spawned by the
        coordinator.
    """

    trajectory_id: str
    pipeline_uid: str
    target: str
    cycle: int
    retry_index: int
    sequence_name: str
    sequence: str
    metrics: QualityMetrics
    fitness: float
    accepted: bool
    energy_total: Optional[float] = None
    is_subpipeline: bool = False

    def __post_init__(self) -> None:
        if self.cycle < 0 or self.retry_index < 0:
            raise PipelineError("cycle and retry_index must be non-negative")


@dataclass
class CycleResult:
    """Outcome of one design cycle of one pipeline."""

    pipeline_uid: str
    target: str
    cycle: int
    accepted: bool
    best_metrics: Optional[QualityMetrics]
    best_sequence: str
    trajectories: List[Trajectory] = field(default_factory=list)
    retries_used: int = 0
    adaptive: bool = True
