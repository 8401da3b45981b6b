"""Tests for the pipelines coordinator (IM-RP) and the control protocol (CONT-V)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import coordinator as coordinator_module
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.control import ControlConfig, ControlProtocol
from repro.core.coordinator import AUTO_IN_FLIGHT, CoordinatorConfig, PipelinesCoordinator
from repro.core.decision import SubPipelinePolicy
from repro.core.pipeline import PipelineConfig, PipelineStatus
from repro.exceptions import CampaignError, CoordinatorError
from repro.protein.datasets import expanded_pdz_set
from repro.protein.metrics import composite_score

FIG3_SEED = 2025


def _fig3_config(**overrides):
    """The paper's Fig 3 campaign: IM-RP, 4 cycles, last one non-adaptive."""
    return CampaignConfig(
        protocol="im-rp",
        seed=FIG3_SEED,
        n_cycles=4,
        adaptivity_schedule=(True, True, True, False),
        spawn_policy=SubPipelinePolicy(quality_margin=0.03, max_per_pipeline=2),
        **overrides,
    )


def _collect_finished(coordinator):
    """Every task the coordinator's completion callback is handed, in order."""
    finished = []
    coordinator.session.task_manager.register_callback(
        lambda task, state: finished.append(task)
    )
    return finished


def _wrap_decision_step(monkeypatch, after):
    """Patch ``_decision_step`` to call ``after(coordinator)`` once it returns."""
    original = PipelinesCoordinator._decision_step

    def wrapped(self, pipeline, cycle_result):
        original(self, pipeline, cycle_result)
        after(self)

    monkeypatch.setattr(PipelinesCoordinator, "_decision_step", wrapped)


@pytest.fixture()
def coordinator(session, factory):
    return PipelinesCoordinator(
        session,
        factory,
        CoordinatorConfig(pipeline=PipelineConfig(n_cycles=2, n_sequences=5)),
    )


class TestCoordinator:
    def test_runs_all_root_pipelines_to_completion(self, coordinator, four_targets):
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        roots = [record for record in records if record.parent_uid is None]
        assert len(roots) == 4
        assert all(record.status is PipelineStatus.COMPLETED for record in roots)

    def test_run_without_targets_raises(self, coordinator):
        with pytest.raises(CoordinatorError):
            coordinator.run()

    def test_tasks_from_different_pipelines_overlap(self, coordinator, four_targets):
        tasks = _collect_finished(coordinator)
        coordinator.add_targets(four_targets)
        coordinator.run()
        by_pipeline = {}
        for task in tasks:
            by_pipeline.setdefault(task.metadata["pipeline_uid"], []).append(task)
        # At least two pipelines must have had tasks running at the same time.
        spans = {
            uid: (min(t.start_time for t in ts), max(t.end_time for t in ts))
            for uid, ts in by_pipeline.items()
        }
        values = sorted(spans.values())
        overlapping = any(
            later_start < earlier_end
            for (_, earlier_end), (later_start, _) in zip(values, values[1:])
        )
        assert overlapping

    def test_subpipelines_spawned_and_recorded(self, session, factory, four_targets):
        coordinator = PipelinesCoordinator(
            session,
            factory,
            CoordinatorConfig(
                pipeline=PipelineConfig(n_cycles=2, n_sequences=5),
                spawn_policy=SubPipelinePolicy(quality_margin=0.05, max_per_pipeline=2),
            ),
        )
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        subs = [record for record in records if record.parent_uid is not None]
        assert coordinator.n_subpipelines == len(subs)
        assert len(subs) >= 1
        for sub in subs:
            assert sub.uid.startswith(sub.parent_uid)
            assert all(t.is_subpipeline for t in sub.trajectories)

    def test_no_subpipelines_when_policy_disallows(self, session, factory, four_targets):
        coordinator = PipelinesCoordinator(
            session,
            factory,
            CoordinatorConfig(
                pipeline=PipelineConfig(n_cycles=2, n_sequences=5),
                spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
            ),
        )
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        assert coordinator.n_subpipelines == 0
        assert all(record.parent_uid is None for record in records)

    def test_in_flight_cap_serialises_roots(self, session, factory, four_targets):
        coordinator = PipelinesCoordinator(
            session,
            factory,
            CoordinatorConfig(
                pipeline=PipelineConfig(n_cycles=1, n_sequences=4),
                spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
                max_in_flight_pipelines=1,
            ),
        )
        tasks = _collect_finished(coordinator)
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        assert len(records) == 4
        assert all(record.status is PipelineStatus.COMPLETED for record in records)
        # With the cap at one, roots execute one after another: their task
        # spans must not interleave.
        spans = {}
        for task in tasks:
            uid = task.metadata["pipeline_uid"]
            start, end = spans.get(uid, (float("inf"), 0.0))
            spans[uid] = (min(start, task.start_time), max(end, task.end_time))
        assert len(spans) == 4
        ordered = sorted(spans.values())
        for (_, earlier_end), (later_start, _) in zip(ordered, ordered[1:]):
            assert later_start >= earlier_end - 1e-6

    def test_completed_channel_saw_every_task(self, monkeypatch, coordinator, four_targets):
        """Channel 2 of the paper, the completion callback, hands back every
        submitted task exactly once."""
        manager = coordinator.session.task_manager
        submit_tasks = manager.submit_tasks
        submitted = []

        def recording_submit(descriptions):
            tasks = submit_tasks(descriptions)
            submitted.extend(task.uid for task in tasks)
            return tasks

        monkeypatch.setattr(manager, "submit_tasks", recording_submit)
        finished = _collect_finished(coordinator)
        coordinator.add_targets(four_targets[:2])
        coordinator.run()
        assert submitted
        assert sorted(task.uid for task in finished) == sorted(submitted)


class TestOnlyInFlightTasksAreHeld:
    """Completion callbacks are the only way to reach a finished task."""

    def test_coordinator_run_frees_every_finished_task(self, coordinator, four_targets):
        refs = []
        coordinator.session.task_manager.register_callback(
            lambda task, state: refs.append(weakref.ref(task))
        )
        coordinator.add_targets(four_targets)
        coordinator.run()
        agent = coordinator.session.pilot.agent
        assert agent.waiting_count == 0
        assert agent.running_count == 0
        gc.collect()
        assert refs
        assert [ref() for ref in refs if ref() is not None] == []

    def test_control_run_frees_every_finished_task(
        self, platform, factory, durations, four_targets
    ):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=2))
        refs = []
        control.runner.on_completion(lambda task: refs.append(weakref.ref(task)))
        control.run(four_targets)
        gc.collect()
        assert refs
        assert [ref() for ref in refs if ref() is not None] == []


class TestDecisionStepCost:
    """The decision step scores one pipeline per completed cycle, not the cohort."""

    @pytest.mark.parametrize("cap", [None, AUTO_IN_FLIGHT])
    def test_incremental_composites_match_full_recompute(self, monkeypatch, cap):
        checked = []

        def check(coordinator):
            expected = {
                pipeline.uid: composite_score(pipeline.latest_metrics)
                for pipeline in coordinator.pipelines()
                if pipeline.latest_metrics is not None
            }
            assert coordinator._composites == expected
            checked.append(len(expected))

        _wrap_decision_step(monkeypatch, check)
        targets = expanded_pdz_set(n_targets=12, seed=FIG3_SEED)
        result = DesignCampaign(
            targets, _fig3_config(max_in_flight_pipelines=cap)
        ).run()
        assert result.n_subpipelines >= 1
        assert len(checked) >= 4 * len(targets)

    def test_composite_calls_linear_in_decisions(self, monkeypatch):
        counts = {"composite": 0, "decisions": 0}
        original_score = coordinator_module.composite_score

        def counting_score(metrics):
            counts["composite"] += 1
            return original_score(metrics)

        def count_decision(coordinator):
            counts["decisions"] += 1

        monkeypatch.setattr(coordinator_module, "composite_score", counting_score)
        _wrap_decision_step(monkeypatch, count_decision)

        per_target = []
        for n_targets in (10, 35, 70, 140):
            counts.update(composite=0, decisions=0)
            targets = expanded_pdz_set(n_targets=n_targets, seed=FIG3_SEED)
            result = DesignCampaign(targets, _fig3_config()).run()
            # One score per decision (the completed pipeline) and one per
            # spawned sub-pipeline (its inherited metrics): O(1) per cycle.
            assert counts["composite"] == counts["decisions"] + result.n_subpipelines
            per_target.append(counts["decisions"] / n_targets)
        mean = sum(per_target) / len(per_target)
        assert all(abs(ratio - mean) <= 0.10 * mean for ratio in per_target), per_target


class TestControlProtocol:
    def test_single_pipeline_record(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=2))
        records = control.run(four_targets)
        assert len(records) == 1
        record = records[0]
        assert record.uid == ControlProtocol.PIPELINE_UID
        assert record.parent_uid is None
        assert record.status is PipelineStatus.COMPLETED

    def test_trajectory_count_is_targets_times_cycles(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=3))
        records = control.run(four_targets)
        assert records[0].n_trajectories == len(four_targets) * 3

    def test_sequential_execution_never_overlaps(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=1))
        tasks = []
        control.runner.on_completion(tasks.append)
        control.run(four_targets[:2])
        assert tasks
        for earlier, later in zip(tasks, tasks[1:]):
            assert later.start_time >= earlier.end_time - 1e-9

    def test_cannot_run_twice(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations)
        control.run(four_targets[:1])
        with pytest.raises(CampaignError):
            control.run(four_targets[:1])

    def test_needs_targets(self, platform, factory, durations):
        control = ControlProtocol(platform, factory, durations)
        with pytest.raises(CampaignError):
            control.run([])

    def test_every_cycle_accepted_without_adaptivity(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=2))
        records = control.run(four_targets[:2])
        assert all(cycle.accepted for cycle in records[0].cycles)
        assert all(not cycle.adaptive for cycle in records[0].cycles)
