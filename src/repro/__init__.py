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
    The pilot-job middleware substrate (task manager, agent, tasks keyed by
    name).
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

Importing
---------
``import repro`` is cheap: it loads no submodule.  This package and every
sub-package are lazy namespaces (:mod:`repro._lazy`): a public name loads
its defining module the first time it is used, so a process imports only
the modules whose names it touches.  Code inside ``src/`` imports each name
from its defining module, never from a package namespace.
"""

from repro._lazy import lazy_namespace

__version__ = "1.0.0"

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "CampaignConfig": "core.campaign",
    "DesignCampaign": "core.campaign",
    "CampaignResult": "core.results",
    "Pipeline": "core.pipeline",
    "PipelineConfig": "core.pipeline",
    "PipelinesCoordinator": "core.coordinator",
    "ControlProtocol": "core.control",
    "ExecutionProtocol": "core.protocols",
    "available_protocols": "core.protocols",
    "get_protocol": "core.protocols",
    "CampaignSuite": "experiments.suite",
    "SuiteResult": "experiments.suite",
    "SweepSpec": "experiments.spec",
    "TargetSpec": "experiments.spec",
    "DesignTarget": "protein.datasets",
    "make_pdz_target": "protein.datasets",
    "named_pdz_targets": "protein.datasets",
    "expanded_pdz_set": "protein.datasets",
    "ALPHA_SYNUCLEIN_C4": "protein.datasets",
    "ALPHA_SYNUCLEIN_C10": "protein.datasets",
    "table1": "analysis.comparison",
    "format_iteration_table": "analysis.reporting",
    "format_table1": "analysis.reporting",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = [*_EXPORTS, "__version__"]
