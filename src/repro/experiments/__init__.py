"""Experiments layer: declarative sweeps and the parallel campaign-suite engine.

Where :mod:`repro.core` runs *one* campaign, this package runs *matrices* of
them:

* :mod:`repro.experiments.spec` — :class:`TargetSpec` / :class:`SweepSpec` /
  :class:`RunSpec`: a declarative, picklable description of protocols ×
  seeds × platform specs × knob combinations.
* :mod:`repro.experiments.suite` — :class:`CampaignSuite`: fans the expanded
  runs out over a process pool (campaign runs are independent simulations),
  preserving per-run seeded determinism, and aggregates them into a
  :class:`SuiteResult`.
* :mod:`repro.experiments.cli` — the ``python -m repro.experiments`` command
  line printing per-run tables and the cross-protocol comparison matrix.

Quick start::

    from repro.experiments import CampaignSuite, SweepSpec, TargetSpec

    sweep = SweepSpec(
        protocols=("im-rp", "cont-v", "im-rp-random"),
        seeds=(0, 1, 2),
        targets=TargetSpec(kind="named-pdz", seed=7),
        base={"n_cycles": 2},
    )
    outcome = CampaignSuite(sweep, executor="process").run()
    for record in outcome.records:
        print(record.spec.run_id, record.result.table_row())
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "RunSpec": "spec",
    "SweepSpec": "spec",
    "TargetSpec": "spec",
    "CampaignSuite": "suite",
    "SuiteResult": "suite",
    "SuiteRunRecord": "suite",
    "execute_run": "suite",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
