"""Pilot-job runtime substrate (RADICAL-Pilot-like middleware).

The paper implements IMPRESS on top of RADICAL-Pilot (RP): a task manager
accepts heterogeneous tasks, and an agent running inside the pilot's
allocation schedules and executes them asynchronously.  This subpackage
reimplements that middleware layer against the simulated platform in
:mod:`repro.hpc`:

* :mod:`repro.runtime.states` — the task state machine.
* :mod:`repro.runtime.task` — task descriptions and live task objects.
* :mod:`repro.runtime.durations` — duration models for the application task
  types (ProteinMPNN, AlphaFold MSA/inference, scoring, ranking...).
* :mod:`repro.runtime.agent` — the agent: placement scheduler + executor.
* :mod:`repro.runtime.task_manager` — the coordinator's one handle: it builds
  the agent, records the pilot's bootstrap, submits tasks and reports
  completions.
* :mod:`repro.runtime.sequential` — the no-middleware sequential runner used
  by the CONT-V baseline.
"""

from repro.runtime.states import TaskState, FINAL_TASK_STATES
from repro.runtime.task import TaskDescription, Task
from repro.runtime.durations import DurationModel, TaskKind, DEFAULT_DURATIONS
from repro.runtime.agent import Agent, AgentConfig
from repro.runtime.task_manager import TaskManager
from repro.runtime.sequential import SequentialRunner

__all__ = [
    "TaskState",
    "FINAL_TASK_STATES",
    "TaskDescription",
    "Task",
    "DurationModel",
    "TaskKind",
    "DEFAULT_DURATIONS",
    "Agent",
    "AgentConfig",
    "TaskManager",
    "SequentialRunner",
]
