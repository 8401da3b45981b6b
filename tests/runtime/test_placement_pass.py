"""One event per task: the agent's placement pass runs inside a completion.

``Agent._complete_task`` ends with the placement pass itself when no other
event is due at its instant, and schedules the pass at that instant
otherwise.  ``_ScheduledPassAgent`` keeps the completion it replaced, which
always scheduled the pass, as the reference: every campaign must come out
the same to the bit, whichever of the two runs it.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.decision import SubPipelinePolicy
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.protein.datasets import expanded_pdz_set
from repro.runtime import task_manager as task_manager_module
from repro.runtime.agent import Agent
from repro.runtime.durations import DurationModel, TaskKind
from repro.runtime.task import Task, TaskDescription


class _ScheduledPassAgent(Agent):
    """The agent before its pass ran inline: every completion schedules it."""

    def _complete_task(self, task: Task) -> None:
        task.finish(self._platform)
        for callback in list(self._completion_callbacks):
            callback(task)
        self._request_placement()


_PLACEMENTS = {
    "fifo": {},
    "backfill": {"scheduler_policy": "backfill"},
    "cap-2": {"max_in_flight_pipelines": 2},
    "auto": {"max_in_flight_pipelines": "auto"},
}


def _run(targets, protocol, placement, speedup):
    config = CampaignConfig(
        protocol=protocol, n_cycles=2, n_sequences=4, seed=5,
        duration_speedup=speedup, **_PLACEMENTS[placement],
    )
    campaign = DesignCampaign(targets, config)
    result = campaign.run()
    profiler = campaign.platform.profiler
    outputs = (result.as_dict(), profiler.resource_intervals, profiler.phase_totals())
    return outputs, campaign.platform.loop.processed


@pytest.mark.parametrize("speedup", [1.0, 1e9])
@pytest.mark.parametrize("protocol", ["im-rp", "im-rp-random"])
@pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
def test_inline_pass_equals_a_scheduled_pass(
    monkeypatch, four_targets, placement, protocol, speedup
):
    inline, inline_events = _run(four_targets, protocol, placement, speedup)
    monkeypatch.setattr(task_manager_module, "Agent", _ScheduledPassAgent)
    scheduled, scheduled_events = _run(four_targets, protocol, placement, speedup)
    assert inline == scheduled
    tasks = len(inline[1])
    # One event per task, the launch pass, and one pass per instant that
    # several completions share.
    deferred = inline_events - tasks - 1
    assert 0 <= deferred < scheduled_events - tasks
    if speedup == 1e9:
        # Every task takes the 1 ms floor, so completions collide, and the
        # pass waits for the other completions of its instant.
        assert deferred > 0


def test_a_fig3_shaped_campaign_processes_one_event_per_task():
    config = CampaignConfig(
        protocol="im-rp", seed=2025, n_cycles=4,
        adaptivity_schedule=(True, True, True, False),
        spawn_policy=SubPipelinePolicy(quality_margin=0.03, max_per_pipeline=2),
    )
    campaign = DesignCampaign(expanded_pdz_set(n_targets=8, seed=2025), config)
    campaign.run()
    tasks = len(campaign.platform.profiler.resource_intervals)
    assert tasks > 8 * 4 * 7
    assert campaign.platform.loop.processed == tasks + 1


def _description(name, cores=1):
    return TaskDescription(
        name=name, kind=TaskKind.COMPARE.value,
        request=ResourceRequest(cpu_cores=cores),
    )


class TestRaisingCallback:
    @pytest.fixture()
    def agent(self):
        return Agent(ComputePlatform(amarel_platform(1)), DurationModel(seed=2))

    def test_the_agent_places_again_after_a_callback_raises(self, agent):
        def submit_then_raise(task):
            agent.submit(Task(_description(f"after.{task.name}")))
            raise RuntimeError("boom")

        remove = agent.on_completion(submit_then_raise)
        agent.submit(Task(_description("first")))
        with pytest.raises(RuntimeError, match="boom"):
            agent.platform.loop.run()
        remove()
        finished = []
        agent.on_completion(finished.append)
        # The task submitted before the raise waits for the next pass, which
        # a submit schedules; both then run.
        agent.submit(Task(_description("second")))
        agent.platform.loop.run()
        assert sorted(task.name for task in finished) == ["after.first", "second"]
        assert agent.platform.allocator.busy_cores() == 0

    def test_a_task_waiting_for_devices_is_placed_by_the_next_completion(self, agent):
        finished = []
        agent.on_completion(finished.append)
        agent.submit(Task(_description("wide", cores=20)))
        agent.submit(Task(_description("blocked", cores=20)))
        agent.platform.loop.run()
        assert [task.name for task in finished] == ["wide", "blocked"]
        blocked = finished[1]
        assert blocked.start_time == finished[0].end_time
        # Two completions, one launch pass; the second task's pass ran
        # inside the first task's completion.
        assert agent.platform.loop.processed == 3
