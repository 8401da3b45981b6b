"""Tests for the agent and the task manager."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.exceptions import ConfigurationError, SchedulingError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.runtime.agent import Agent, AgentConfig
from repro.runtime.durations import DurationModel, TaskKind
from repro.runtime.states import TaskState
from repro.runtime.task import Task, TaskDescription
from repro.runtime.task_manager import TaskManager


def _description(name="t", kind=TaskKind.COMPARE, cores=1, gpus=0, payload=None, **meta):
    return TaskDescription(
        name=name,
        kind=kind.value if isinstance(kind, TaskKind) else kind,
        request=ResourceRequest(cpu_cores=cores, gpus=gpus),
        payload=payload,
        metadata=meta,
    )


@pytest.fixture()
def fast_durations():
    return DurationModel(seed=2, speedup=1000.0)


@pytest.fixture()
def agent(fast_durations):
    return Agent(ComputePlatform(amarel_platform(1)), fast_durations)


@pytest.fixture()
def manager(fast_durations):
    return TaskManager(ComputePlatform(amarel_platform(1)), fast_durations)


class TestAgent:
    def test_executes_task_and_collects_result(self, agent):
        task = Task(_description(payload=lambda: {"value": 42}))
        agent.submit(task)
        agent.platform.run()
        assert task.state is TaskState.DONE
        assert task.result == {"value": 42}
        assert task.start_time is not None and task.end_time > task.start_time

    def test_payload_exception_fails_task(self, agent):
        def broken():
            raise RuntimeError("boom")

        task = Task(_description(payload=broken))
        agent.submit(task)
        agent.platform.run()
        assert task.state is TaskState.FAILED
        assert "boom" in task.stderr
        # Resources are released even on failure.
        assert agent.platform.allocator.busy_cores() == 0

    def test_concurrent_tasks_overlap_in_time(self, agent):
        tasks = [
            Task(_description(name=f"gpu{i}", kind=TaskKind.AF_INFERENCE, cores=2, gpus=1))
            for i in range(3)
        ]
        for task in tasks:
            agent.submit(task)
        agent.platform.run()
        starts = [task.start_time for task in tasks]
        ends = [task.end_time for task in tasks]
        assert max(starts) < min(ends)  # all three ran concurrently

    def test_resources_gate_concurrency(self, fast_durations):
        agent = Agent(ComputePlatform(amarel_platform(1)), fast_durations)
        tasks = [
            Task(_description(name=f"g{i}", kind=TaskKind.AF_INFERENCE, cores=1, gpus=1))
            for i in range(6)  # only 4 GPUs exist
        ]
        for task in tasks:
            agent.submit(task)
        agent.platform.run()
        assert all(task.state is TaskState.DONE for task in tasks)
        # At least one task had to wait for a GPU to free up.
        assert max(task.start_time for task in tasks) > min(task.start_time for task in tasks)

    def test_completion_callback_invoked(self, agent):
        seen = []
        agent.on_completion(lambda task: seen.append(task.uid))
        task = Task(_description())
        agent.submit(task)
        agent.platform.run()
        assert seen == [task.uid]

    def test_profiler_records_intervals_and_phases(self, agent):
        task = Task(_description(kind=TaskKind.SCORING, cores=4))
        agent.submit(task)
        agent.platform.run()
        profiler = agent.platform.profiler
        assert len(profiler.resource_intervals) == 1
        assert profiler.resource_intervals[0].cpu_core_ids == (0, 1, 2, 3)
        phases = profiler.phase_totals()
        assert phases["exec_setup"] > 0
        assert phases["running"] > 0

    def test_invalid_config(self, fast_durations):
        platform = ComputePlatform(amarel_platform(1))
        with pytest.raises(ConfigurationError):
            Agent(platform, fast_durations, AgentConfig(scheduler_policy="lottery"))
        with pytest.raises(ConfigurationError):
            Agent(
                platform,
                fast_durations,
                AgentConfig(scheduler_policy="backfill", backfill_window=0),
            )

    def test_rejected_task_is_not_kept(self, agent):
        # A request that can never fit is refused before the task changes
        # state, and the agent keeps no reference to it.
        task = Task(_description(name="huge", cores=1000))
        ref = weakref.ref(task)
        with pytest.raises(SchedulingError):
            agent.submit(task)
        assert task.state is TaskState.NEW
        assert agent.waiting_count == 0
        del task
        gc.collect()
        assert ref() is None


class TestPilotAndManagers:
    """The task manager and the pilot bootstrap phase it records."""

    def test_task_manager_records_pilot_bootstrap(self, fast_durations):
        platform = ComputePlatform(amarel_platform(1))
        TaskManager(platform, fast_durations)
        (phase,) = platform.profiler.phase_intervals
        assert phase.phase == "bootstrap"
        assert (phase.start, phase.end) == (0.0, 180.0)
        # Recording the phase schedules nothing: the agent places tasks at once.
        assert platform.loop.pending == 0

    def test_task_manager_submit_and_wait(self, manager):
        finished = []
        manager.register_callback(finished.append)
        tasks = manager.submit_tasks(
            [_description(name=f"t{i}", payload=lambda i=i: i) for i in range(4)]
        )
        manager.platform.run()
        assert sorted(finished, key=lambda task: task.name) == tasks
        assert all(task.state is TaskState.DONE for task in tasks)
        assert [task.result for task in tasks] == [0, 1, 2, 3]

    def test_task_manager_completed_channel_and_callbacks(self, manager):
        # Completions reach the caller through callbacks only; no channel keeps them.
        seen = []
        manager.register_callback(lambda task: seen.append((task, task.state)))
        (task,) = manager.submit_tasks(_description(name="single"))
        manager.platform.run()
        assert seen == [(task, TaskState.DONE)]
        assert not hasattr(manager, "completed_channel")

    def test_wait_raise_on_failure(self, manager):
        # A failing payload is reported to the callbacks as FAILED, not raised.
        def broken():
            raise ValueError("bad input")

        seen = []
        manager.register_callback(lambda task: seen.append((task, task.state)))
        (task,) = manager.submit_tasks(_description(name="broken", payload=broken))
        manager.platform.run()
        assert seen == [(task, TaskState.FAILED)]
        assert "bad input" in task.stderr
