"""The task state machine.

The state names deliberately mirror RADICAL-Pilot's task lifecycle (NEW ->
TMGR_SCHEDULING -> AGENT_SCHEDULING -> EXECUTING -> DONE/FAILED) so readers
familiar with RP can map this reproduction back to the real system.  Nothing
cancels a task here, so RP's CANCELED state has no counterpart.
Transitions are validated: any attempt to move an entity along an edge not in
the transition table raises :class:`repro.exceptions.StateTransitionError`.
"""

from __future__ import annotations

import enum
from typing import Dict, Set

from repro.exceptions import StateTransitionError

__all__ = ["TaskState", "validate_task_transition"]


class TaskState(str, enum.Enum):
    """Lifecycle states of a task."""

    NEW = "NEW"
    TMGR_SCHEDULING = "TMGR_SCHEDULING"
    AGENT_SCHEDULING = "AGENT_SCHEDULING"
    EXECUTING = "EXECUTING"
    DONE = "DONE"
    FAILED = "FAILED"


_TASK_TRANSITIONS: Dict[TaskState, Set[TaskState]] = {
    TaskState.NEW: {TaskState.TMGR_SCHEDULING},
    TaskState.TMGR_SCHEDULING: {TaskState.AGENT_SCHEDULING, TaskState.FAILED},
    TaskState.AGENT_SCHEDULING: {TaskState.EXECUTING, TaskState.FAILED},
    TaskState.EXECUTING: {TaskState.DONE, TaskState.FAILED},
    TaskState.DONE: set(),
    TaskState.FAILED: set(),
}


def validate_task_transition(entity: str, current: TaskState, target: TaskState) -> None:
    """Raise :class:`StateTransitionError` unless ``current -> target`` is legal."""
    if target not in _TASK_TRANSITIONS[current]:
        raise StateTransitionError(entity, current.value, target.value)
