"""Pilot-job runtime substrate (RADICAL-Pilot-like middleware).

The paper implements IMPRESS on top of RADICAL-Pilot (RP): a task manager
accepts heterogeneous tasks, and an agent running inside the pilot's
allocation schedules and executes them asynchronously.  This subpackage
reimplements that middleware layer against the simulated platform in
:mod:`repro.hpc`:

* :mod:`repro.runtime.task` — task descriptions and live task objects, keyed
  by task name.
* :mod:`repro.runtime.durations` — duration models for the application task
  types (ProteinMPNN, AlphaFold MSA/inference, scoring, ranking...).
* :mod:`repro.runtime.agent` — the agent: placement scheduler + executor.
* :mod:`repro.runtime.task_manager` — the coordinator's one handle: it builds
  the agent, records the pilot's bootstrap, submits tasks and reports
  completions.
* :mod:`repro.runtime.sequential` — the no-middleware sequential runner used
  by the CONT-V baseline.
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "TaskDescription": "task",
    "Task": "task",
    "DurationModel": "durations",
    "TaskKind": "durations",
    "Agent": "agent",
    "TaskManager": "task_manager",
    "SequentialRunner": "sequential",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
