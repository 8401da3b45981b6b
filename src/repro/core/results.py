"""Campaign results: aggregation, Table-I rows and figure series.

A :class:`CampaignResult` is the complete record of one campaign run (IM-RP
or CONT-V): every pipeline, every trajectory, the baseline (iteration-0)
metrics of the starting structures, and the computational accounting taken
from the platform profiler.  All the numbers the paper reports are derived
from it:

* Table I row: pipeline / sub-pipeline / trajectory counts, CPU %, GPU %,
  execution time, and per-metric net deltas.
* Fig 2 / Fig 3 series: per-iteration medians and half-standard-deviations
  of pLDDT, pTM and inter-chain pAE across the target cohort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.pipeline import PipelineStatus
from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import CampaignError
from repro.protein.metrics import QualityMetrics, aggregate_metrics
from repro.utils.stats import net_delta_percent

__all__ = [
    "PipelineRecord",
    "CampaignResult",
    "net_deltas_from_summary",
]


def net_deltas_from_summary(
    summary: Dict[int, Dict[str, Dict[str, float]]],
) -> Dict[str, float]:
    """Net change (%) of each metric's cohort median, first vs last iteration.

    Shared by :meth:`CampaignResult.net_deltas` and the persistent store's
    reloaded result views, so live and stored results derive the deltas with
    bit-identical arithmetic.
    """
    if len(summary) < 2:
        raise CampaignError(
            "need at least a baseline and one completed iteration for net deltas"
        )
    first_key = min(summary)
    last_key = max(summary)
    return {
        metric: net_delta_percent(
            summary[first_key][metric]["median"], summary[last_key][metric]["median"]
        )
        for metric in ("plddt", "ptm", "interchain_pae")
    }


@dataclass
class PipelineRecord:
    """Summary of one pipeline after its campaign finished."""

    uid: str
    target: str
    parent_uid: Optional[str]
    status: PipelineStatus
    cycles: List[CycleResult] = field(default_factory=list)
    trajectories: List[Trajectory] = field(default_factory=list)

    @property
    def is_subpipeline(self) -> bool:
        return self.parent_uid is not None

    @property
    def n_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def cycles_accepted(self) -> int:
        return sum(1 for cycle in self.cycles if cycle.accepted)

    def as_dict(self) -> dict:
        return {
            "uid": self.uid,
            "target": self.target,
            "parent_uid": self.parent_uid,
            "status": self.status.value,
            "cycles_accepted": self.cycles_accepted,
            "n_trajectories": self.n_trajectories,
        }


@dataclass
class CampaignResult:
    """Complete outcome of one campaign run."""

    approach: str
    targets: List[str]
    pipelines: List[PipelineRecord]
    baseline_metrics: Dict[str, QualityMetrics]
    makespan_hours: float
    total_task_hours: float
    cpu_utilization: float
    gpu_utilization: float
    phase_totals: Dict[str, float] = field(default_factory=dict)
    n_cycles: int = 4
    seed: int = 0
    #: Key of the execution protocol that produced this result
    #: (``approach`` is the report label; this is the machine-readable key).
    protocol: str = ""

    # -- counting --------------------------------------------------------------- #

    @property
    def root_pipelines(self) -> List[PipelineRecord]:
        return [record for record in self.pipelines if not record.is_subpipeline]

    @property
    def sub_pipelines(self) -> List[PipelineRecord]:
        return [record for record in self.pipelines if record.is_subpipeline]

    @property
    def n_pipelines(self) -> int:
        return len(self.root_pipelines)

    @property
    def n_subpipelines(self) -> int:
        return len(self.sub_pipelines)

    @property
    def trajectories(self) -> List[Trajectory]:
        all_trajectories: List[Trajectory] = []
        for record in self.pipelines:
            all_trajectories.extend(record.trajectories)
        return all_trajectories

    @property
    def n_trajectories(self) -> int:
        return sum(record.n_trajectories for record in self.pipelines)

    @property
    def structures_per_pipeline(self) -> float:
        """Average number of starting structures handled per root pipeline."""
        if not self.root_pipelines:
            return 0.0
        return len(self.targets) / len(self.root_pipelines)

    # -- per-iteration metric series (Figs 2 and 3) ------------------------------- #

    def metrics_by_iteration(self) -> Dict[int, List[QualityMetrics]]:
        """Accepted cycle metrics grouped by design-cycle index.

        Iteration ``0`` holds the baseline metrics of the starting
        structures; iteration ``k >= 1`` holds the metrics of cycle ``k-1``'s
        accepted designs across all pipelines.
        """
        by_iteration: Dict[int, List[QualityMetrics]] = {
            0: list(self.baseline_metrics.values())
        }
        for record in self.pipelines:
            for cycle in record.cycles:
                if cycle.best_metrics is None or not cycle.accepted:
                    continue
                by_iteration.setdefault(cycle.cycle + 1, []).append(cycle.best_metrics)
        return by_iteration

    def final_design_metrics(self) -> Dict[str, QualityMetrics]:
        """Best final accepted metrics per design target.

        For each target, the accepted cycle result with the highest cycle
        index is taken from every pipeline working on that target (root or
        sub-pipeline); ties are broken by composite score.  This is "the
        design set" the paper's Fig 2 text refers to when it compares
        consistency between the two implementations.
        """
        from repro.protein.metrics import composite_score

        best: Dict[str, tuple] = {}
        for record in self.pipelines:
            for cycle in record.cycles:
                if not cycle.accepted or cycle.best_metrics is None:
                    continue
                key = cycle.target
                candidate = (cycle.cycle, composite_score(cycle.best_metrics))
                if key not in best or candidate > best[key][0]:
                    best[key] = (candidate, cycle.best_metrics)
        return {target: metrics for target, (_, metrics) in best.items()}

    def iteration_summary(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Median / half-std per metric per iteration — the Fig 2/3 series."""
        summary: Dict[int, Dict[str, Dict[str, float]]] = {}
        for iteration, metrics in sorted(self.metrics_by_iteration().items()):
            if not metrics:
                continue
            summary[iteration] = aggregate_metrics(metrics)
        return summary

    # -- Table I quantities ---------------------------------------------------------- #

    def net_deltas(self) -> Dict[str, float]:
        """Net change (%) of each metric's cohort median, first vs last iteration."""
        return net_deltas_from_summary(self.iteration_summary())

    def table_row(self) -> Dict[str, object]:
        """One row of Table I for this campaign."""
        deltas = self.net_deltas()
        return {
            "approach": self.approach,
            "n_pipelines": self.n_pipelines,
            "n_subpipelines": self.n_subpipelines,
            "structures_per_pipeline": self.structures_per_pipeline,
            "trajectories": self.n_trajectories,
            "cpu_utilization_pct": 100.0 * self.cpu_utilization,
            "gpu_utilization_pct": 100.0 * self.gpu_utilization,
            "makespan_hours": self.makespan_hours,
            "total_task_hours": self.total_task_hours,
            "ptm_net_delta_pct": deltas["ptm"],
            "plddt_net_delta_pct": deltas["plddt"],
            "pae_net_delta_pct": deltas["interchain_pae"],
        }

    def as_dict(self) -> dict:
        return {
            "approach": self.approach,
            "protocol": self.protocol,
            "seed": self.seed,
            "n_cycles": self.n_cycles,
            "targets": list(self.targets),
            "n_pipelines": self.n_pipelines,
            "n_subpipelines": self.n_subpipelines,
            "n_trajectories": self.n_trajectories,
            "makespan_hours": self.makespan_hours,
            "total_task_hours": self.total_task_hours,
            "cpu_utilization": self.cpu_utilization,
            "gpu_utilization": self.gpu_utilization,
            "phase_totals": dict(self.phase_totals),
            "iteration_summary": self.iteration_summary(),
            "pipelines": [record.as_dict() for record in self.pipelines],
        }
