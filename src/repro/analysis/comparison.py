"""Campaign comparisons: Table I and cross-protocol sweep matrices.

:func:`table1` consumes the two campaign results and emits the rows of the
paper's Table I — pipeline/sub-pipeline/structure/trajectory counts, CPU and
GPU utilization percentages, execution time, and the three per-metric net
deltas — plus the derived improvements quoted in the text (e.g. "+32.8%
pLDDT net delta", higher consistency, more trajectories examined).

:func:`protocol_matrix` generalises the comparison beyond two runs: it
aggregates any number of campaign results (e.g. a
:class:`~repro.experiments.suite.CampaignSuite` sweep over protocols × seeds)
into one row per protocol with across-seed means and spreads.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.results import CampaignResult
from repro.exceptions import CampaignError

__all__ = [
    "Table1Row",
    "table1",
    "ProtocolMatrixRow",
    "protocol_matrix",
    "protocol_matrix_from_store",
]


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    approach: str
    n_pipelines: int
    n_subpipelines: Optional[int]
    structures_per_pipeline: float
    trajectories: int
    cpu_percent: float
    gpu_percent: float
    time_hours: float
    ptm_net_delta_pct: float
    plddt_net_delta_pct: float
    pae_net_delta_pct: float

    def as_dict(self) -> dict:
        return {
            "approach": self.approach,
            "n_pipelines": self.n_pipelines,
            "n_subpipelines": self.n_subpipelines,
            "structures_per_pipeline": self.structures_per_pipeline,
            "trajectories": self.trajectories,
            "cpu_percent": self.cpu_percent,
            "gpu_percent": self.gpu_percent,
            "time_hours": self.time_hours,
            "ptm_net_delta_pct": self.ptm_net_delta_pct,
            "plddt_net_delta_pct": self.plddt_net_delta_pct,
            "pae_net_delta_pct": self.pae_net_delta_pct,
        }


def _row(result: CampaignResult) -> Table1Row:
    deltas = result.net_deltas()
    return Table1Row(
        approach=result.approach,
        n_pipelines=result.n_pipelines,
        n_subpipelines=result.n_subpipelines if result.approach == "IM-RP" else None,
        structures_per_pipeline=result.structures_per_pipeline,
        trajectories=result.n_trajectories,
        cpu_percent=100.0 * result.cpu_utilization,
        gpu_percent=100.0 * result.gpu_utilization,
        time_hours=result.total_task_hours,
        ptm_net_delta_pct=deltas["ptm"],
        plddt_net_delta_pct=deltas["plddt"],
        pae_net_delta_pct=deltas["interchain_pae"],
    )


def table1(control: CampaignResult, adaptive: CampaignResult) -> Dict[str, object]:
    """Build the Table I comparison from the two campaign results.

    Returns a dictionary with ``rows`` (list of :class:`Table1Row`, control
    first) and convenience booleans asserting the paper's qualitative claims
    (used by the benchmark harness and the integration tests).
    """
    if control.approach == adaptive.approach:
        raise CampaignError("table1 expects one control and one adaptive result")
    rows: List[Table1Row] = [_row(control), _row(adaptive)]
    claims = {
        "adaptive_has_more_trajectories": adaptive.n_trajectories > control.n_trajectories,
        "adaptive_has_higher_cpu_utilization": adaptive.cpu_utilization > control.cpu_utilization,
        "adaptive_has_higher_gpu_utilization": adaptive.gpu_utilization > control.gpu_utilization,
        "adaptive_has_higher_plddt_gain": rows[1].plddt_net_delta_pct >= rows[0].plddt_net_delta_pct,
        "adaptive_has_higher_ptm_gain": rows[1].ptm_net_delta_pct >= rows[0].ptm_net_delta_pct,
        "adaptive_takes_longer_aggregate_time": rows[1].time_hours >= rows[0].time_hours,
    }
    return {"rows": rows, "claims": claims}


@dataclass(frozen=True)
class ProtocolMatrixRow:
    """Across-seed aggregate of every run of one protocol in a sweep."""

    protocol: str
    approach: str
    n_runs: int
    trajectories_mean: float
    cpu_percent_mean: float
    gpu_percent_mean: float
    makespan_hours_mean: float
    total_task_hours_mean: float
    plddt_net_delta_pct_mean: float
    ptm_net_delta_pct_mean: float
    pae_net_delta_pct_mean: float
    plddt_net_delta_pct_std: float


def protocol_matrix(results: Sequence[CampaignResult]) -> List[ProtocolMatrixRow]:
    """Aggregate sweep results into one row per protocol.

    Results are grouped by their ``protocol`` key (falling back to the
    ``approach`` label for a result built without one) in first-seen
    order; each row carries across-run means of the Table-I quantities plus
    the across-run standard deviation of the pLDDT net delta (the sweep-level
    consistency signal the paper's Fig 2 text argues about).
    """
    if not results:
        raise CampaignError("protocol_matrix needs at least one campaign result")
    groups: Dict[str, List[CampaignResult]] = {}
    for result in results:
        groups.setdefault(result.protocol or result.approach, []).append(result)

    def _mean(values: List[float]) -> float:
        return statistics.fmean(values)

    rows: List[ProtocolMatrixRow] = []
    for protocol, members in groups.items():
        deltas = [member.net_deltas() for member in members]
        plddt_deltas = [delta["plddt"] for delta in deltas]
        rows.append(
            ProtocolMatrixRow(
                protocol=protocol,
                approach=members[0].approach,
                n_runs=len(members),
                trajectories_mean=_mean([m.n_trajectories for m in members]),
                cpu_percent_mean=_mean([100.0 * m.cpu_utilization for m in members]),
                gpu_percent_mean=_mean([100.0 * m.gpu_utilization for m in members]),
                makespan_hours_mean=_mean([m.makespan_hours for m in members]),
                total_task_hours_mean=_mean([m.total_task_hours for m in members]),
                plddt_net_delta_pct_mean=_mean(plddt_deltas),
                ptm_net_delta_pct_mean=_mean([delta["ptm"] for delta in deltas]),
                pae_net_delta_pct_mean=_mean(
                    [delta["interchain_pae"] for delta in deltas]
                ),
                plddt_net_delta_pct_std=(
                    statistics.stdev(plddt_deltas) if len(plddt_deltas) > 1 else 0.0
                ),
            )
        )
    return rows


def protocol_matrix_from_store(store) -> List[ProtocolMatrixRow]:
    """The cross-protocol matrix aggregated straight from a persistent store.

    ``store`` is a :class:`repro.store.RunStore`, or a path to one.  Stored
    result views expose the same quantities :func:`protocol_matrix` reads
    from live :class:`CampaignResult` objects (shared net-delta arithmetic),
    so a matrix reported from a store matches the matrix of the original
    suite execution exactly.  Records stream one at a time — the store is
    never fully materialised.
    """
    if not hasattr(store, "iter_records"):
        from repro.store.runstore import RunStore

        store = RunStore(store)
    return protocol_matrix([stored.result for stored in store.iter_records()])
