"""Tests for the agent, pilot/task managers, queues and the session facade."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.runtime.agent import Agent, AgentConfig
from repro.runtime.durations import DurationModel, TaskKind
from repro.runtime.pilot import PilotDescription
from repro.runtime.pilot_manager import PilotManager
from repro.runtime.queues import Channel
from repro.runtime.session import Session
from repro.runtime.states import PilotState, TaskState
from repro.runtime.task import Task, TaskDescription


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


class TestChannel:
    def test_fifo_order(self):
        channel: Channel[int] = Channel("c")
        channel.put(1)
        channel.put(2)
        assert channel.get() == 1
        assert channel.get() == 2
        assert channel.get() is None

    def test_drain_and_counts(self):
        channel: Channel[str] = Channel("c")
        for item in "abc":
            channel.put(item)
        assert channel.drain() == ["a", "b", "c"]
        assert channel.put_count == 3
        assert channel.get_count == 3
        assert not channel

    def test_subscribe_and_unsubscribe(self):
        channel: Channel[int] = Channel("c")
        seen = []
        callback = seen.append
        channel.subscribe(callback)
        channel.put(5)
        assert seen == [5]
        assert channel.unsubscribe(callback) is True
        channel.put(6)
        assert seen == [5]
        assert channel.unsubscribe(callback) is False

    def test_peek_does_not_consume(self):
        channel: Channel[int] = Channel("c")
        channel.put(9)
        assert channel.peek() == 9
        assert len(channel) == 1


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

    def test_max_concurrent_cap(self, fast_durations):
        config = AgentConfig(max_concurrent_tasks=1)
        agent = Agent(ComputePlatform(amarel_platform(1)), fast_durations, config)
        tasks = [Task(_description(name=f"t{i}")) for i in range(3)]
        for task in tasks:
            agent.submit(task)
        agent.platform.run()
        intervals = sorted((task.start_time, task.end_time) for task in tasks)
        for (start_a, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            assert start_b >= end_a - 1e-9  # strictly sequential

    def test_cancel_waiting_task(self, fast_durations):
        config = AgentConfig(max_concurrent_tasks=1)
        agent = Agent(ComputePlatform(amarel_platform(1)), fast_durations, config)
        running = Task(_description(name="run"))
        waiting = Task(_description(name="wait"))
        agent.submit(running)
        agent.submit(waiting)
        # Fire the placement event only, then cancel the still-waiting task.
        agent.platform.loop.step()
        assert agent.cancel(waiting) is True
        agent.platform.run()
        assert waiting.state is TaskState.CANCELED
        assert running.state is TaskState.DONE

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

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AgentConfig(max_concurrent_tasks=0)
        with pytest.raises(ConfigurationError):
            AgentConfig(sandbox_files=-1)


class TestPilotAndManagers:
    def test_pilot_bootstrap_then_active(self, fast_durations):
        platform = ComputePlatform(amarel_platform(1))
        manager = PilotManager(fast_durations)
        pilot = manager.submit_pilot(PilotDescription(bootstrap_seconds=60.0), platform)
        assert pilot.state is PilotState.PMGR_LAUNCHING
        platform.run()
        assert pilot.state is PilotState.ACTIVE
        assert pilot.active_time == pytest.approx(60.0)

    def test_pilot_manager_rejects_oversized_pilot(self, fast_durations):
        platform = ComputePlatform(amarel_platform(1))
        manager = PilotManager(fast_durations)
        with pytest.raises(ConfigurationError):
            manager.submit_pilot(PilotDescription(nodes=2), platform)

    def test_pilot_description_validation(self):
        with pytest.raises(ConfigurationError):
            PilotDescription(nodes=0)
        with pytest.raises(ConfigurationError):
            PilotDescription(runtime_hours=0)

    def test_pilot_shutdown_and_manager_listing(self, fast_durations):
        platform = ComputePlatform(amarel_platform(1))
        manager = PilotManager(fast_durations)
        pilot = manager.submit_pilot(PilotDescription(), platform)
        platform.run()
        manager.shutdown()
        assert pilot.state is PilotState.DONE
        assert manager.list_pilots() == [pilot]
        assert manager.get(pilot.uid) is pilot

    def test_task_manager_submit_and_wait(self, fast_durations):
        session = Session(amarel_platform(1), durations=fast_durations)
        manager = session.task_manager
        finished = []
        manager.register_callback(lambda task, state: finished.append(task))
        tasks = manager.submit_tasks(
            [_description(name=f"t{i}", payload=lambda i=i: i) for i in range(4)]
        )
        session.platform.run()
        assert sorted(finished, key=lambda task: task.name) == tasks
        assert all(task.state is TaskState.DONE for task in tasks)
        assert [task.result for task in tasks] == [0, 1, 2, 3]

    def test_task_manager_completed_channel_and_callbacks(self, fast_durations):
        # Completions reach the caller through callbacks only; no channel keeps them.
        session = Session(amarel_platform(1), durations=fast_durations)
        manager = session.task_manager
        seen = []
        manager.register_callback(lambda task, state: seen.append((task, state)))
        (task,) = manager.submit_tasks(_description(name="single"))
        session.platform.run()
        assert seen == [(task, TaskState.DONE)]
        assert not hasattr(manager, "completed_channel")

    def test_wait_raise_on_failure(self, fast_durations):
        # A failing payload is reported to the callbacks as FAILED, not raised.
        session = Session(amarel_platform(1), durations=fast_durations)
        manager = session.task_manager

        def broken():
            raise ValueError("bad input")

        seen = []
        manager.register_callback(lambda task, state: seen.append((task, state)))
        (task,) = manager.submit_tasks(_description(name="broken", payload=broken))
        session.platform.run()
        assert seen == [(task, TaskState.FAILED)]
        assert "bad input" in task.stderr

    def test_task_manager_single_pilot_only(self, fast_durations):
        session = Session(amarel_platform(1), durations=fast_durations)
        manager = session.task_manager
        with pytest.raises(ConfigurationError):
            manager.add_pilot(session.pilot)

    def test_session_context_manager_and_close(self, fast_durations):
        with Session(amarel_platform(1), durations=fast_durations) as session:
            manager = session.task_manager
            manager.submit_tasks(_description(name="inside"))
        assert session.closed
        assert session.pilot.state is PilotState.DONE

    def test_session_sequential_runner_shares_platform(self, fast_durations):
        session = Session(amarel_platform(1), durations=fast_durations)
        runner = session.sequential_runner()
        assert runner.platform is session.platform
