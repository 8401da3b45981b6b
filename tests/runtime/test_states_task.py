"""Tests for the task state machine and the Task object."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, StateTransitionError
from repro.hpc.resources import ResourceRequest
from repro.runtime.states import TaskState, validate_task_transition
from repro.runtime.task import Task, TaskDescription

#: States a task never leaves.
_FINAL = (TaskState.DONE, TaskState.FAILED)


class TestTaskStateMachine:
    def test_happy_path_is_legal(self):
        path = [
            TaskState.NEW,
            TaskState.TMGR_SCHEDULING,
            TaskState.AGENT_SCHEDULING,
            TaskState.EXECUTING,
            TaskState.DONE,
        ]
        for current, target in zip(path, path[1:]):
            validate_task_transition("t", current, target)

    def test_skipping_states_is_illegal(self):
        with pytest.raises(StateTransitionError):
            validate_task_transition("t", TaskState.NEW, TaskState.EXECUTING)

    def test_final_states_are_terminal(self):
        for final in _FINAL:
            for target in TaskState:
                with pytest.raises(StateTransitionError):
                    validate_task_transition("t", final, target)

    def test_every_submitted_state_may_fail(self):
        for state in (
            TaskState.TMGR_SCHEDULING,
            TaskState.AGENT_SCHEDULING,
            TaskState.EXECUTING,
        ):
            validate_task_transition("t", state, TaskState.FAILED)
        with pytest.raises(StateTransitionError):
            validate_task_transition("t", TaskState.NEW, TaskState.FAILED)

    @given(st.sampled_from(list(TaskState)), st.sampled_from(list(TaskState)))
    @settings(max_examples=60, deadline=None)
    def test_no_transition_out_of_final(self, current, target):
        if current in _FINAL:
            with pytest.raises(StateTransitionError):
                validate_task_transition("t", current, target)

    def test_error_message_contains_states(self):
        with pytest.raises(StateTransitionError) as excinfo:
            validate_task_transition("task.1", TaskState.NEW, TaskState.DONE)
        message = str(excinfo.value)
        assert "task.1" in message and "NEW" in message and "DONE" in message


class TestTaskDescription:
    def test_uid_autogenerated_and_unique(self):
        request = ResourceRequest(cpu_cores=1)
        a = TaskDescription(name="a", kind="generic", request=request)
        b = TaskDescription(name="b", kind="generic", request=request)
        assert a.uid and b.uid and a.uid != b.uid

    def test_explicit_uid_kept(self):
        description = TaskDescription(
            name="a", kind="generic", request=ResourceRequest(cpu_cores=1), uid="task.x"
        )
        assert description.uid == "task.x"

    def test_requires_name_and_kind(self):
        with pytest.raises(ConfigurationError):
            TaskDescription(name="", kind="generic", request=ResourceRequest(cpu_cores=1))
        with pytest.raises(ConfigurationError):
            TaskDescription(name="a", kind="", request=ResourceRequest(cpu_cores=1))


class TestTask:
    def _task(self):
        return Task(
            TaskDescription(name="t", kind="generic", request=ResourceRequest(cpu_cores=1))
        )

    def test_initial_state(self):
        task = self._task()
        assert task.state is TaskState.NEW
        assert not task.failed

    def test_advance_moves_state(self):
        task = self._task()
        task.advance(TaskState.TMGR_SCHEDULING)
        assert task.state is TaskState.TMGR_SCHEDULING
        task.advance(TaskState.AGENT_SCHEDULING)
        assert task.state is TaskState.AGENT_SCHEDULING

    def test_illegal_advance_raises(self):
        task = self._task()
        with pytest.raises(StateTransitionError):
            task.advance(TaskState.DONE)
