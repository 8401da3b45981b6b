"""The task state machine.

The state names deliberately mirror RADICAL-Pilot's task lifecycle (NEW ->
TMGR_SCHEDULING -> AGENT_SCHEDULING -> EXECUTING -> DONE/FAILED/CANCELED) so
readers familiar with RP can map this reproduction back to the real system.
Transitions are validated: any attempt to move an entity along an edge not in
the transition table raises :class:`repro.exceptions.StateTransitionError`.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Set

from repro.exceptions import StateTransitionError

__all__ = ["TaskState", "FINAL_TASK_STATES", "validate_task_transition"]


class TaskState(str, enum.Enum):
    """Lifecycle states of a task."""

    NEW = "NEW"
    TMGR_SCHEDULING = "TMGR_SCHEDULING"
    AGENT_SCHEDULING = "AGENT_SCHEDULING"
    EXECUTING = "EXECUTING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"


#: Task states from which no further transition is allowed.
FINAL_TASK_STATES: FrozenSet[TaskState] = frozenset(
    {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED}
)

_TASK_TRANSITIONS: Dict[TaskState, Set[TaskState]] = {
    TaskState.NEW: {TaskState.TMGR_SCHEDULING, TaskState.CANCELED},
    TaskState.TMGR_SCHEDULING: {TaskState.AGENT_SCHEDULING, TaskState.CANCELED, TaskState.FAILED},
    TaskState.AGENT_SCHEDULING: {TaskState.EXECUTING, TaskState.CANCELED, TaskState.FAILED},
    TaskState.EXECUTING: {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED},
    TaskState.DONE: set(),
    TaskState.FAILED: set(),
    TaskState.CANCELED: set(),
}


def validate_task_transition(entity: str, current: TaskState, target: TaskState) -> None:
    """Raise :class:`StateTransitionError` unless ``current -> target`` is legal."""
    if target not in _TASK_TRANSITIONS[current]:
        raise StateTransitionError(entity, current.value, target.value)
