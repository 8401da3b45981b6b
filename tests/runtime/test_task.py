"""Tests for task descriptions and the Task object."""

from __future__ import annotations

import pytest

from repro.exceptions import AllocationError, ConfigurationError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.runtime.task import Task, TaskDescription


def _task(payload=None, name="t"):
    return Task(
        TaskDescription(
            name=name, kind="generic", request=ResourceRequest(cpu_cores=2), payload=payload
        )
    )


class TestTaskDescription:
    def test_requires_name_and_kind(self):
        with pytest.raises(ConfigurationError):
            TaskDescription(name="", kind="generic", request=ResourceRequest(cpu_cores=1))
        with pytest.raises(ConfigurationError):
            TaskDescription(name="a", kind="", request=ResourceRequest(cpu_cores=1))

    def test_its_name_is_its_only_identity(self):
        # No generated id tells two descriptions of the same task apart, so
        # a pipeline that rebuilds its outstanding task rebuilds an equal one.
        request = ResourceRequest(cpu_cores=1)
        first = TaskDescription(name="a", kind="generic", request=request)
        assert first == TaskDescription(name="a", kind="generic", request=request)
        assert first != TaskDescription(name="b", kind="generic", request=request)


class TestTask:
    def test_a_new_task_waits(self):
        task = _task()
        assert task.start_time is None and task.end_time is None
        assert task.allocation is None
        assert not task.failed

    def test_reads_through_to_its_description(self):
        description = TaskDescription(
            name="score",
            kind="scoring",
            request=ResourceRequest(cpu_cores=4),
            metadata={"stage": "scoring"},
        )
        task = Task(description)
        assert task.description is description
        assert (task.name, task.kind) == ("score", "scoring")
        assert task.request is description.request
        assert task.metadata == {"stage": "scoring"}


class TestFinish:
    @staticmethod
    def _running(payload=None):
        """A task placed at t=0 on a fresh platform whose clock reads 5 s."""
        platform = ComputePlatform(amarel_platform(1))
        task = _task(payload)
        task.allocation = platform.allocator.allocate(task.request)
        task.start_time = platform.now
        platform.loop.run_until(5.0)
        return platform, task

    def test_records_one_interval_under_the_task_name(self):
        platform, task = self._running(lambda: 42)
        task.finish(platform)
        assert task.result == 42 and not task.failed
        assert task.end_time == 5.0
        (interval,) = platform.profiler.resource_intervals
        assert interval.task_id == "t"
        assert (interval.start, interval.end) == (0.0, 5.0)
        assert len(interval.cpu_core_ids) == 2
        assert platform.allocator.busy_cores() == 0

    def test_a_raising_payload_fails_the_task(self):
        def broken():
            raise ValueError("bad input")

        platform, task = self._running(broken)
        task.finish(platform)
        assert task.failed
        assert isinstance(task.exception, ValueError)
        assert str(task.exception) == "bad input"
        assert task.end_time == 5.0
        assert platform.allocator.busy_cores() == 0

    def test_a_second_finish_raises_before_running_or_recording_again(self):
        calls = []
        platform, task = self._running(lambda: calls.append(None))
        task.finish(platform)
        with pytest.raises(AllocationError, match="double release"):
            task.finish(platform)
        assert calls == [None]
        assert len(platform.profiler.resource_intervals) == 1
