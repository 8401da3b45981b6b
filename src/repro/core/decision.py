"""Decision policies: cycle acceptance and adaptive sub-pipeline spawning.

Two decisions drive IM-RP's behaviour:

* **Acceptance (Stage 6, per pipeline)** — does the newly predicted design
  improve on the previous cycle?  If not, fall back to the next-ranked
  sequence, up to a retry budget, after which the pipeline terminates.
* **Sub-pipeline spawning (coordinator, global)** — the coordinator keeps a
  global view of every pipeline's latest quality and decides whether a
  design should be re-processed by a freshly generated sub-pipeline (the
  paper: "dynamically generates sub-pipelines when additional refinement,
  exploration, or iterative improvement is needed").

Both policies are small, explicit objects so the ablation benchmarks can
swap them out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ConfigurationError
from repro.protein.metrics import QualityMetrics, composite_score, is_improvement

__all__ = ["AcceptancePolicy", "SubPipelineSpec", "SubPipelinePolicy"]


@dataclass(frozen=True)
class AcceptancePolicy:
    """Stage 6 accept/reject rule.

    Attributes
    ----------
    min_delta:
        Minimum composite-score improvement required to accept a design.
    strict:
        Require every individual metric to improve as well.
    metric:
        ``"composite"`` (default) or one of ``"plddt"``, ``"ptm"``, ``"pae"``
        to decide on a single metric instead — exercised by the decision-
        metric ablation benchmark.
    """

    min_delta: float = 0.0
    strict: bool = False
    metric: str = "composite"

    def __post_init__(self) -> None:
        if self.metric not in ("composite", "plddt", "ptm", "pae"):
            raise ConfigurationError(f"unknown decision metric {self.metric!r}")
        if not math.isfinite(self.min_delta):
            raise ConfigurationError(f"min_delta must be finite, got {self.min_delta!r}")

    def accepts(self, new: QualityMetrics, previous: Optional[QualityMetrics]) -> bool:
        """Whether ``new`` should replace ``previous`` as the cycle best."""
        if previous is None:
            return True
        if self.metric == "composite":
            return is_improvement(
                new, previous, min_delta=self.min_delta, strict=self.strict
            )
        if self.metric == "plddt":
            return new.plddt - previous.plddt > self.min_delta
        if self.metric == "ptm":
            return new.ptm - previous.ptm > self.min_delta
        # pae: lower is better
        return previous.interchain_pae - new.interchain_pae > self.min_delta


@dataclass(frozen=True)
class SubPipelineSpec:
    """Instruction produced by the spawn policy: start one sub-pipeline."""

    parent_uid: str
    target_name: str
    reason: str
    n_cycles: int
    start_from_best: bool = True


@dataclass
class SubPipelinePolicy:
    """Coordinator-level policy deciding when to spawn sub-pipelines.

    A sub-pipeline is spawned for a pipeline's latest accepted design when
    its composite quality falls below the cohort median by more than
    ``quality_margin``, or when a cycle ended without an accepted improvement
    (the design needs re-exploration).  Budgets bound the total amount of
    extra work.

    Attributes
    ----------
    quality_margin:
        Designs whose composite score is below ``cohort median +
        quality_margin`` are considered in need of further refinement; a
        positive margin therefore also re-processes designs sitting just
        above the median.
    max_per_pipeline:
        Maximum sub-pipelines spawned on behalf of any single root pipeline.
    max_total:
        Global sub-pipeline budget for the campaign (``None`` = unbounded).
    subpipeline_cycles:
        Number of design cycles given to each sub-pipeline.
    spawn_on_rejection:
        Also spawn when a cycle exhausted its retries without improvement.
    """

    quality_margin: float = 0.03
    max_per_pipeline: int = 3
    max_total: Optional[int] = None
    subpipeline_cycles: int = 1
    spawn_on_rejection: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.quality_margin) and self.quality_margin >= 0):
            raise ConfigurationError(
                f"quality_margin must be finite and non-negative, got {self.quality_margin!r}"
            )
        if self.max_per_pipeline < 0:
            raise ConfigurationError("max_per_pipeline must be non-negative")
        if self.max_total is not None and self.max_total < 0:
            raise ConfigurationError("max_total must be non-negative or None")
        if self.subpipeline_cycles < 1:
            raise ConfigurationError("subpipeline_cycles must be >= 1")

    def should_spawn(
        self,
        *,
        pipeline_uid: str,
        target_name: str,
        latest_metrics: Optional[QualityMetrics],
        cycle_accepted: bool,
        cohort_median_composite: Optional[float],
        spawned_for_pipeline: int,
        spawned_total: int,
    ) -> Optional[SubPipelineSpec]:
        """Evaluate the spawn rule for one completed cycle.

        Returns a :class:`SubPipelineSpec` when a sub-pipeline should be
        generated, else ``None``.
        """
        if spawned_for_pipeline >= self.max_per_pipeline:
            return None
        if self.max_total is not None and spawned_total >= self.max_total:
            return None

        if not cycle_accepted and self.spawn_on_rejection:
            return SubPipelineSpec(
                parent_uid=pipeline_uid,
                target_name=target_name,
                reason="cycle_rejected",
                n_cycles=self.subpipeline_cycles,
                start_from_best=True,
            )

        if latest_metrics is None or cohort_median_composite is None:
            return None

        composite = composite_score(latest_metrics)
        if composite < cohort_median_composite + self.quality_margin:
            return SubPipelineSpec(
                parent_uid=pipeline_uid,
                target_name=target_name,
                reason="below_cohort_median",
                n_cycles=self.subpipeline_cycles,
                start_from_best=True,
            )
        return None

    @staticmethod
    def cohort_median(latest_composites: Dict[str, float]) -> Optional[float]:
        """Median composite score across pipelines (``None`` for an empty view)."""
        if not latest_composites:
            return None
        values = sorted(latest_composites.values())
        mid = len(values) // 2
        if len(values) % 2 == 1:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])
