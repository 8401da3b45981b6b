"""Analysis layer: utilization, makespan and campaign comparison reports.

Turns platform profiler traces and campaign results into the quantities the
paper reports:

* :mod:`repro.analysis.utilization` — CPU/GPU utilization percentages and
  timelines (Table I columns, Figs 4 and 5).
* :mod:`repro.analysis.makespan` — execution-time accounting and the
  bootstrap / exec-setup / running phase breakdown (Fig 5 legend).
* :mod:`repro.analysis.comparison` — CONT-V vs IM-RP head-to-head (Table I).
* :mod:`repro.analysis.reporting` — plain-text tables and figure series used
  by the examples and the benchmark harness.
* :mod:`repro.analysis.progress` — sweep progress/throughput snapshots for
  orchestrated (multi-worker) campaigns.
* :mod:`repro.analysis.timeline` — per-worker span timelines, fleet
  utilization and straggler summaries reconstructed from the telemetry
  streams of *real* (non-simulated) multi-worker sweeps.
* :mod:`repro.analysis.scaling` — the scaling-study reduction: the same
  sweep at increasing fleet sizes, reduced to speedup/efficiency/
  utilization per size (the ``orchestrate scale`` table).
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "UtilizationReport": "utilization",
    "utilization_report": "utilization",
    "MakespanReport": "makespan",
    "makespan_report": "makespan",
    "table1": "comparison",
    "Table1Row": "comparison",
    "protocol_matrix": "comparison",
    "ProtocolMatrixRow": "comparison",
    "QueueProgress": "progress",
    "RunInFlight": "progress",
    "format_queue_progress": "progress",
    "ScalingPoint": "scaling",
    "ScalingStudy": "scaling",
    "build_scaling_study": "scaling",
    "format_scaling_table": "scaling",
    "FleetTimeline": "timeline",
    "WorkerTimeline": "timeline",
    "TimelineSpan": "timeline",
    "TimelineEvent": "timeline",
    "fleet_timeline": "timeline",
    "format_fleet_timeline": "timeline",
    "format_protocol_matrix": "reporting",
    "format_iteration_table": "reporting",
    "format_table1": "reporting",
    "format_utilization_table": "reporting",
    "iteration_series": "reporting",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
