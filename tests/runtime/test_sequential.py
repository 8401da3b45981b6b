"""Tests for the middleware-free sequential runner (CONT-V substrate)."""

from __future__ import annotations

import pytest

from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import amarel_platform
from repro.runtime.durations import DurationModel, TaskKind
from repro.runtime.sequential import SequentialRunner
from repro.runtime.states import TaskState
from repro.runtime.task import TaskDescription


def _description(name, kind=TaskKind.COMPARE, payload=None):
    model = DurationModel()
    return TaskDescription(
        name=name, kind=kind.value, request=model.request_for(kind), payload=payload
    )


@pytest.fixture()
def runner():
    platform = ComputePlatform(amarel_platform(1))
    return SequentialRunner(platform, DurationModel(seed=4, speedup=100.0))


class TestSequentialRunner:
    def test_runs_task_to_completion(self, runner):
        task = runner.run_task(_description("a", payload=lambda: "done"))
        assert task.state is TaskState.DONE
        assert task.result == "done"
        assert runner.platform.now == pytest.approx(task.end_time)

    def test_tasks_never_overlap(self, runner):
        descriptions = [
            _description(f"t{i}", kind=TaskKind.AF_INFERENCE) for i in range(3)
        ]
        tasks = [runner.run_task(description) for description in descriptions]
        for earlier, later in zip(tasks, tasks[1:]):
            assert later.start_time >= earlier.end_time - 1e-9

    def test_failure_recorded_and_resources_released(self, runner):
        def broken():
            raise RuntimeError("no")

        task = runner.run_task(_description("bad", payload=broken))
        assert task.state is TaskState.FAILED
        assert runner.platform.allocator.busy_cores() == 0

    def test_completion_callbacks(self, runner):
        seen = []
        runner.on_completion(seen.append)
        one = runner.run_task(_description("one"))
        two = runner.run_task(_description("two"))
        assert seen == [one, two]

    def test_profiler_gets_one_interval_per_task(self, runner):
        for i in range(4):
            runner.run_task(_description(f"t{i}"))
        assert len(runner.platform.profiler.resource_intervals) == 4

    def test_low_utilization_by_construction(self, runner):
        # A single-core task stream on a 28-core node cannot exceed 1/28 CPU
        # utilization — the structural reason CONT-V underuses the machine.
        for i in range(5):
            runner.run_task(_description(f"t{i}"))
        assert runner.platform.profiler.cpu_utilization() <= 1.0 / 28 + 1e-9
