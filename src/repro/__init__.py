"""repro — reproduction of "Adaptive Protein Design Protocols and Middleware".

The package re-implements the IMPRESS framework described in the paper:
adaptive protein-design pipelines (ProteinMPNN -> ranking -> AlphaFold ->
scoring -> accept/reject) coordinated over a RADICAL-Pilot-style runtime, on
a simulated HPC platform, together with the non-adaptive control baseline
and the full evaluation harness (Table I, Figs 2-5).

Quick start::

    from repro import CampaignConfig, DesignCampaign, named_pdz_targets

    targets = named_pdz_targets(seed=7)
    result = DesignCampaign(targets, CampaignConfig(protocol="im-rp", seed=7)).run()
    print(result.table_row())

Sub-packages
------------
``repro.core``
    The paper's contribution: pipelines, coordinator, adaptive decisions,
    control baseline, campaigns and results.
``repro.runtime``
    The pilot-job middleware substrate (task manager, agent, task states).
``repro.hpc``
    The discrete-event HPC platform (resources, scheduler, filesystem,
    profiler).
``repro.protein``
    The protein-design application substrate (sequences, structures,
    surrogate ProteinMPNN/AlphaFold, datasets).
``repro.analysis``
    Utilization/makespan reports and the Table-I comparison.
``repro.experiments``
    Declarative sweeps (protocols x seeds x knobs) and the parallel
    campaign-suite engine (``python -m repro.experiments``).
"""

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.results import CampaignResult, compare_campaigns
from repro.core.pipeline import Pipeline, PipelineConfig
from repro.core.coordinator import CoordinatorConfig, PipelinesCoordinator
from repro.core.control import ControlConfig, ControlProtocol
from repro.core.protocols import (
    ExecutionProtocol,
    available_protocols,
    get_protocol,
    register_protocol,
)
from repro.experiments import CampaignSuite, SuiteResult, SweepSpec, TargetSpec
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C4,
    ALPHA_SYNUCLEIN_C10,
    DesignTarget,
    expanded_pdz_set,
    make_pdz_target,
    named_pdz_targets,
)
from repro.analysis.comparison import table1
from repro.analysis.reporting import format_iteration_table, format_table1

__version__ = "1.0.0"

__all__ = [
    "CampaignConfig",
    "DesignCampaign",
    "CampaignResult",
    "compare_campaigns",
    "Pipeline",
    "PipelineConfig",
    "CoordinatorConfig",
    "PipelinesCoordinator",
    "ControlConfig",
    "ControlProtocol",
    "ExecutionProtocol",
    "available_protocols",
    "get_protocol",
    "register_protocol",
    "CampaignSuite",
    "SuiteResult",
    "SweepSpec",
    "TargetSpec",
    "DesignTarget",
    "make_pdz_target",
    "named_pdz_targets",
    "expanded_pdz_set",
    "ALPHA_SYNUCLEIN_C4",
    "ALPHA_SYNUCLEIN_C10",
    "table1",
    "format_iteration_table",
    "format_table1",
    "__version__",
]
