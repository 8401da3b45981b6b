"""Tests for the agent and the task manager."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.exceptions import SchedulingError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.runtime.agent import Agent
from repro.runtime.durations import DurationModel, TaskKind
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


def _done(task):
    """RP's DONE: finished, and its payload did not raise."""
    return task.end_time is not None and not task.failed


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
        agent.platform.loop.run()
        assert _done(task)
        assert task.result == {"value": 42}
        assert task.start_time is not None and task.end_time > task.start_time

    def test_payload_exception_fails_task(self, agent):
        def broken():
            raise RuntimeError("boom")

        task = Task(_description(payload=broken))
        agent.submit(task)
        agent.platform.loop.run()
        assert task.failed and task.end_time is not None
        assert "boom" in str(task.exception)
        # Resources are released even on failure.
        assert agent.platform.allocator.busy_cores() == 0

    def test_concurrent_tasks_overlap_in_time(self, agent):
        tasks = [
            Task(_description(name=f"gpu{i}", kind=TaskKind.AF_INFERENCE, cores=2, gpus=1))
            for i in range(3)
        ]
        for task in tasks:
            agent.submit(task)
        agent.platform.loop.run()
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
        agent.platform.loop.run()
        assert all(_done(task) for task in tasks)
        # At least one task had to wait for a GPU to free up.
        assert max(task.start_time for task in tasks) > min(task.start_time for task in tasks)

    def test_completion_callback_invoked(self, agent):
        seen = []
        agent.on_completion(lambda task: seen.append(task.name))
        task = Task(_description(name="heard"))
        agent.submit(task)
        agent.platform.loop.run()
        assert seen == ["heard"]

    def test_completion_remover_detaches_only_its_registration(self, agent):
        seen = []
        remove_first = agent.on_completion(seen.append)
        agent.on_completion(seen.append)
        remove_first()
        task = Task(_description())
        agent.submit(task)
        agent.platform.loop.run()
        assert seen == [task]

    def test_profiler_records_intervals_and_phases(self, agent):
        task = Task(_description(kind=TaskKind.SCORING, cores=4))
        agent.submit(task)
        agent.platform.loop.run()
        profiler = agent.platform.profiler
        assert len(profiler.resource_intervals) == 1
        assert profiler.resource_intervals[0].cpu_core_ids == (0, 1, 2, 3)
        phases = profiler.phase_totals()
        assert phases["exec_setup"] > 0
        assert phases["running"] > 0

    def test_profiler_ids_are_task_names(self, agent):
        agent.submit(Task(_description(name="named")))
        agent.platform.loop.run()
        profiler = agent.platform.profiler
        assert [interval.task_id for interval in profiler.resource_intervals] == ["named"]
        assert list(profiler.phase_totals()) == ["exec_setup", "running"]

    def test_exec_setup_is_the_sandbox_setup_over_the_speedup(self, agent):
        # Six sandbox files at 20 ms of metadata latency each, compressed
        # by the duration model's speedup (1000 here), once per task.
        for index in range(3):
            agent.submit(Task(_description(name=f"t{index}")))
        agent.platform.loop.run()
        phases = agent.platform.profiler.phase_totals()
        assert phases["exec_setup"] == pytest.approx(3 * 0.12 / 1000.0)

    @pytest.mark.parametrize("window", [0, 1])
    def test_window_decides_whether_a_task_passes_a_blocked_head(
        self, fast_durations, window
    ):
        # "blocker" holds 27 of 28 cores, so "big" (4) waits for it; only a
        # window past the head lets "small" (1) start at once.
        agent = Agent(ComputePlatform(amarel_platform(1)), fast_durations, window)
        blocker, big, small = (
            Task(_description(name=name, cores=cores))
            for name, cores in (("blocker", 27), ("big", 4), ("small", 1))
        )
        for task in (blocker, big, small):
            agent.submit(task)
        agent.platform.loop.run()
        assert all(_done(task) for task in (blocker, big, small))
        assert big.start_time == blocker.end_time
        if window:
            assert small.start_time == 0.0
        else:
            assert small.start_time == big.start_time

    def test_a_waiting_task_is_held_by_the_scheduler_queue_only(self, agent):
        # The queue holds the task itself; once it leaves the queue (here by
        # hand, before any placement pass runs) nothing else keeps it.
        task = Task(_description(name="queued"))
        ref = weakref.ref(task)
        agent.submit(task)
        queue = agent._scheduler._queue
        assert list(queue) == [task]
        del task
        queue.clear()
        gc.collect()
        assert ref() is None

    def test_rejected_task_is_not_kept(self, agent):
        # A request that can never fit is refused before it enters the
        # queue, and the agent keeps no reference to it.
        task = Task(_description(name="huge", cores=1000))
        ref = weakref.ref(task)
        with pytest.raises(SchedulingError, match="'huge'"):
            agent.submit(task)
        assert task.start_time is None and task.allocation is None
        assert agent.platform.loop.pending == 0  # no placement pass for it
        del task
        gc.collect()
        assert ref() is None
        # Nor does its request wait: at the head of the FIFO queue it would
        # block every later task forever.
        later = Task(_description(name="later"))
        agent.submit(later)
        agent.platform.loop.run()
        assert _done(later)


class TestPilotAndManagers:
    """The task manager and the pilot bootstrap phase it records."""

    def test_task_manager_records_pilot_bootstrap(self, fast_durations):
        platform = ComputePlatform(amarel_platform(1))
        TaskManager(platform, fast_durations)
        assert platform.profiler.phase_totals() == {"bootstrap": 180.0}
        # Recording the phase schedules nothing: the agent places tasks at once.
        assert platform.loop.pending == 0

    def test_task_manager_submit_and_wait(self, manager):
        finished = []
        manager.register_callback(finished.append)
        tasks = manager.submit_tasks(
            [_description(name=f"t{i}", payload=lambda i=i: i) for i in range(4)]
        )
        manager.platform.loop.run()
        assert sorted(finished, key=lambda task: task.name) == tasks
        assert all(_done(task) for task in tasks)
        assert [task.result for task in tasks] == [0, 1, 2, 3]

    def test_task_manager_completed_channel_and_callbacks(self, manager):
        # Completions reach the caller through callbacks only; no channel keeps them.
        seen = []
        manager.register_callback(lambda task: seen.append((task, _done(task))))
        (task,) = manager.submit_tasks(_description(name="single"))
        manager.platform.loop.run()
        assert seen == [(task, True)]
        assert not hasattr(manager, "completed_channel")

    def test_register_callback_returns_the_agents_remover(self, manager):
        seen = []
        remove = manager.register_callback(seen.append)
        manager.submit_tasks(_description(name="heard"))
        manager.platform.loop.run()
        remove()
        manager.submit_tasks(_description(name="unheard"))
        manager.platform.loop.run()
        assert [task.name for task in seen] == ["heard"]

    def test_wait_raise_on_failure(self, manager):
        # A failing payload is reported to the callbacks as failed, not raised.
        def broken():
            raise ValueError("bad input")

        seen = []
        manager.register_callback(lambda task: seen.append((task, task.failed)))
        (task,) = manager.submit_tasks(_description(name="broken", payload=broken))
        manager.platform.loop.run()
        assert seen == [(task, True)]
        assert "bad input" in str(task.exception)
