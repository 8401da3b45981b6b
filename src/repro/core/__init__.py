"""IMPRESS core: adaptive protein-design pipelines, coordinator and campaigns.

This package is the paper's primary contribution re-implemented:

* :mod:`repro.core.trajectory` — trajectory and cycle records (one trajectory
  = one structure-prediction evaluation, the unit Table I counts).
* :mod:`repro.core.pipeline` — the :class:`Pipeline` state machine binding
  the six stages of Fig 1 into the iterative design cycle with adaptive
  accept/reject and next-ranked-sequence fallback; each pipeline builds its
  own stage tasks over the shared protein surrogates (:class:`StageModels`).
* :mod:`repro.core.decision` — acceptance and sub-pipeline spawn policies.
* :mod:`repro.core.coordinator` — the pipelines coordinator: concurrent
  submission, monitoring, global quality view, adaptive sub-pipeline
  generation (IM-RP).
* :mod:`repro.core.control` — the non-adaptive sequential control (CONT-V).
* :mod:`repro.core.protocols` — the fixed table of four execution
  protocols ("im-rp", "cont-v" and two ablations), one row each, and the
  :class:`~repro.core.protocols.CampaignState` a campaign steps through.
* :mod:`repro.core.campaign` — :class:`DesignCampaign`, the top-level public
  API: it builds, restores and steps the engine its protocol's row calls for
  (the coordinator or the control) end-to-end on a simulated platform.
* :mod:`repro.core.results` — campaign results and Table-I-style summaries.
* :mod:`repro.core.genetic` — the genetic-algorithm framing exposed for
  extension (population, selection, recombination).
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "Trajectory": "trajectory",
    "CycleResult": "trajectory",
    "StageModels": "pipeline",
    "Pipeline": "pipeline",
    "PipelineConfig": "pipeline",
    "PipelineStatus": "pipeline",
    "PipelineStep": "pipeline",
    "AcceptancePolicy": "decision",
    "SubPipelinePolicy": "decision",
    "SubPipelineSpec": "decision",
    "PipelinesCoordinator": "coordinator",
    "ControlProtocol": "control",
    "ExecutionProtocol": "protocols",
    "available_protocols": "protocols",
    "get_protocol": "protocols",
    "CampaignConfig": "campaign",
    "DesignCampaign": "campaign",
    "CampaignResult": "results",
    "PipelineRecord": "results",
    "GeneticConfig": "genetic",
    "GeneticOptimizer": "genetic",
    "Individual": "genetic",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
