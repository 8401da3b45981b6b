"""Pilot-job runtime substrate (RADICAL-Pilot-like middleware).

The paper implements IMPRESS on top of RADICAL-Pilot (RP): a pilot manager
acquires resources, a task manager accepts heterogeneous tasks, and an agent
running inside the allocation schedules and executes them asynchronously.
This subpackage reimplements that middleware layer against the simulated
platform in :mod:`repro.hpc`:

* :mod:`repro.runtime.states` — task and pilot state machines.
* :mod:`repro.runtime.task` — task descriptions and live task objects.
* :mod:`repro.runtime.pilot` — pilot descriptions and pilots.
* :mod:`repro.runtime.durations` — duration models for the application task
  types (ProteinMPNN, AlphaFold MSA/inference, scoring, ranking...).
* :mod:`repro.runtime.agent` — the agent: placement scheduler + executor.
* :mod:`repro.runtime.task_manager` / :mod:`repro.runtime.pilot_manager` —
  RP-style client-side managers.
* :mod:`repro.runtime.queues` — the coordinator's submission channel.
* :mod:`repro.runtime.sequential` — the no-middleware sequential runner used
  by the CONT-V baseline.
* :mod:`repro.runtime.session` — the :class:`Session` facade.
"""

from repro.runtime.states import TaskState, PilotState, FINAL_TASK_STATES
from repro.runtime.task import TaskDescription, Task
from repro.runtime.pilot import PilotDescription, Pilot
from repro.runtime.durations import DurationModel, TaskKind, DEFAULT_DURATIONS
from repro.runtime.agent import Agent, AgentConfig
from repro.runtime.queues import Channel
from repro.runtime.task_manager import TaskManager
from repro.runtime.pilot_manager import PilotManager
from repro.runtime.sequential import SequentialRunner
from repro.runtime.session import Session

__all__ = [
    "TaskState",
    "PilotState",
    "FINAL_TASK_STATES",
    "TaskDescription",
    "Task",
    "PilotDescription",
    "Pilot",
    "DurationModel",
    "TaskKind",
    "DEFAULT_DURATIONS",
    "Agent",
    "AgentConfig",
    "Channel",
    "TaskManager",
    "PilotManager",
    "SequentialRunner",
    "Session",
]
