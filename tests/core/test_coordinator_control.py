"""Tests for the pipelines coordinator (IM-RP) and the control protocol (CONT-V)."""

from __future__ import annotations

import gc
import json
import re
import weakref

import pytest

from repro.core import coordinator as coordinator_module
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.control import ControlProtocol
from repro.core.coordinator import AUTO_IN_FLIGHT, PipelinesCoordinator
from repro.core.decision import AcceptancePolicy, SubPipelinePolicy
from repro.core.pipeline import PipelineConfig, PipelineStatus
from repro.exceptions import CampaignError, ConfigurationError, CoordinatorError
from repro.hpc.resources import ResourceRequest
from repro.protein.datasets import expanded_pdz_set
from repro.protein.metrics import composite_score
from repro.runtime.durations import TaskKind
from repro.runtime.sequential import SequentialRunner
from repro.runtime.task import TaskDescription
from repro.runtime.task_manager import TaskManager

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


def _control_campaign(targets, **overrides):
    """A small cont-v campaign on ``targets``."""
    config = dict(protocol="cont-v", seed=13, n_cycles=2, n_sequences=4)
    config.update(overrides)
    return DesignCampaign(targets, CampaignConfig(**config))


def _record_run_tasks(monkeypatch):
    """Names and weak references of every task the sequential runner runs."""
    names, refs = [], []
    run_task = SequentialRunner.run_task

    def recording(self, description):
        task = run_task(self, description)
        names.append(task.name)
        refs.append(weakref.ref(task))
        return task

    monkeypatch.setattr(SequentialRunner, "run_task", recording)
    return names, refs


def _run(coordinator):
    """Step ``coordinator`` until its simulation drains; its records."""
    while not coordinator.step_cycle():
        pass
    return coordinator.records()


def _collect_finished(task_manager):
    """Every task the task manager reports finished, in order."""
    finished = []
    task_manager.register_callback(finished.append)
    return finished


def _wrap_decision_step(monkeypatch, after):
    """Patch ``_decision_step`` to call ``after(coordinator)`` once it returns."""
    original = PipelinesCoordinator._decision_step

    def wrapped(self, pipeline, cycle_result):
        original(self, pipeline, cycle_result)
        after(self)

    monkeypatch.setattr(PipelinesCoordinator, "_decision_step", wrapped)


@pytest.fixture()
def coordinator(task_manager, models):
    return PipelinesCoordinator(
        task_manager,
        models,
        PipelineConfig(n_cycles=2, n_sequences=5),
    )


class TestCoordinator:
    def test_runs_all_root_pipelines_to_completion(self, coordinator, four_targets):
        coordinator.add_targets(four_targets)
        records = _run(coordinator)
        roots = [record for record in records if record.parent_uid is None]
        assert len(roots) == 4
        assert all(record.status is PipelineStatus.COMPLETED for record in roots)

    def test_step_without_targets_raises(self, coordinator):
        with pytest.raises(CoordinatorError):
            coordinator.step_cycle()

    def test_tasks_from_different_pipelines_overlap(
        self, coordinator, task_manager, four_targets
    ):
        tasks = _collect_finished(task_manager)
        coordinator.add_targets(four_targets)
        _run(coordinator)
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

    def test_subpipelines_spawned_and_recorded(self, task_manager, models, four_targets):
        coordinator = PipelinesCoordinator(
            task_manager,
            models,
            PipelineConfig(n_cycles=2, n_sequences=5),
            spawn_policy=SubPipelinePolicy(quality_margin=0.05, max_per_pipeline=2),
        )
        coordinator.add_targets(four_targets)
        records = _run(coordinator)
        subs = [record for record in records if record.parent_uid is not None]
        assert len(subs) >= 1
        for sub in subs:
            assert sub.uid.startswith(sub.parent_uid)
            assert all(t.is_subpipeline for t in sub.trajectories)

    def test_no_subpipelines_when_policy_disallows(self, task_manager, models, four_targets):
        coordinator = PipelinesCoordinator(
            task_manager,
            models,
            PipelineConfig(n_cycles=2, n_sequences=5),
            spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
        )
        coordinator.add_targets(four_targets)
        records = _run(coordinator)
        assert len(records) == 4
        assert all(record.parent_uid is None for record in records)

    def test_in_flight_cap_serialises_roots(self, task_manager, models, four_targets):
        coordinator = PipelinesCoordinator(
            task_manager,
            models,
            PipelineConfig(n_cycles=1, n_sequences=4),
            spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
            max_in_flight_pipelines=1,
        )
        tasks = _collect_finished(task_manager)
        coordinator.add_targets(four_targets)
        records = _run(coordinator)
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

    def test_completed_channel_saw_every_task(
        self, monkeypatch, coordinator, task_manager, four_targets
    ):
        """The completion callback hands back every submitted task exactly
        once."""
        submit_tasks = task_manager.submit_tasks
        submitted = []

        def recording_submit(descriptions):
            tasks = submit_tasks(descriptions)
            submitted.extend(task.name for task in tasks)
            return tasks

        monkeypatch.setattr(task_manager, "submit_tasks", recording_submit)
        finished = _collect_finished(task_manager)
        coordinator.add_targets(four_targets[:2])
        _run(coordinator)
        assert submitted
        assert sorted(task.name for task in finished) == sorted(submitted)


class TestOnlyInFlightTasksAreHeld:
    """Completion callbacks are the only way to reach a finished task."""

    def test_coordinator_run_frees_every_finished_task(
        self, coordinator, task_manager, four_targets
    ):
        refs = []
        task_manager.register_callback(lambda task: refs.append(weakref.ref(task)))
        coordinator.add_targets(four_targets)
        _run(coordinator)
        platform = task_manager.platform
        # A running task holds devices and a pending completion event.
        assert platform.loop.pending == 0
        assert platform.allocator.busy_cores() == 0
        gc.collect()
        assert refs
        assert [ref() for ref in refs if ref() is not None] == []

    def test_control_run_frees_every_finished_task(self, monkeypatch, four_targets):
        _, refs = _record_run_tasks(monkeypatch)
        states = []
        _control_campaign(four_targets).run_stepwise(on_state=states.append)
        gc.collect()
        assert refs
        # The states keep the live control engine alive; it holds no task.
        assert states[-1].runtime is not None
        assert [ref() for ref in refs if ref() is not None] == []


def _wrap_registered_callbacks(monkeypatch):
    """Register a wrapper for every callback, as the benchmark tracer does.

    Returns the names of the tasks the wrappers were handed, in order, and
    the wrappers registered and not yet removed.
    """
    calls, registered = [], []
    register = TaskManager.register_callback

    def wrapping_register(manager, callback):
        def wrapper(task):
            calls.append(task.name)
            callback(task)

        remove = register(manager, wrapper)
        registered.append(wrapper)

        def remover():
            registered.remove(wrapper)
            remove()

        return remover

    monkeypatch.setattr(TaskManager, "register_callback", wrapping_register)
    return calls, registered


def _run_one_more_task(task_manager):
    task_manager.submit_tasks(
        TaskDescription(
            name="after-run", kind=TaskKind.COMPARE.value, request=ResourceRequest()
        )
    )
    task_manager.platform.loop.run()


class TestCallbackLifetime:
    """The coordinator's task callback is registered only while a step runs."""

    def _coordinator(self, task_manager, models):
        return PipelinesCoordinator(
            task_manager,
            models,
            PipelineConfig(n_cycles=2, n_sequences=5),
        )

    def test_no_callback_is_registered_between_steps(
        self, monkeypatch, task_manager, models, four_targets
    ):
        calls, registered = _wrap_registered_callbacks(monkeypatch)
        coordinator = self._coordinator(task_manager, models)
        coordinator.add_targets(four_targets[:2])
        steps = 1
        while not coordinator.step_cycle():
            assert registered == []
            assert coordinator.n_cycles_completed == steps
            steps += 1
        assert registered == []
        assert calls and steps == coordinator.n_cycles_completed + 1

    def test_last_step_detaches_its_callback(
        self, monkeypatch, task_manager, models, four_targets
    ):
        calls, registered = _wrap_registered_callbacks(monkeypatch)
        coordinator = self._coordinator(task_manager, models)
        coordinator.add_targets(four_targets[:2])
        _run(coordinator)
        heard = len(calls)
        assert heard > 0 and registered == []
        _run_one_more_task(task_manager)
        assert len(calls) == heard

    def test_a_step_that_raises_detaches_its_callback(
        self, monkeypatch, task_manager, models, four_targets
    ):
        calls, registered = _wrap_registered_callbacks(monkeypatch)

        def failing_decision_step(self, pipeline, cycle_result):
            raise RuntimeError("decision step failed")

        monkeypatch.setattr(PipelinesCoordinator, "_decision_step", failing_decision_step)
        coordinator = self._coordinator(task_manager, models)
        coordinator.add_targets(four_targets[:2])
        with pytest.raises(RuntimeError, match="decision step failed"):
            coordinator.step_cycle()
        heard = len(calls)
        assert registered == []
        # The other pipeline's task is still in flight; nothing routes it back.
        _run_one_more_task(task_manager)
        assert len(calls) == heard


class _Abandoned(Exception):
    pass


class TestFinishedCampaignIsFreedByRefcount:
    """No reference cycle survives a ``PipelinesCoordinator.step_cycle()``.

    A worker drains many campaigns in one process; a cycle would leave each
    finished campaign (coordinator, agent, platform, profiler traces,
    pipelines) to the cyclic collector, and memory would grow between its
    full collections.
    """

    def _coordinators(self, monkeypatch, four_targets, config):
        """Weak references to the coordinators built from now on.

        A first run makes whatever is created once per process.
        """
        coordinators = []
        init = PipelinesCoordinator.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            coordinators.append(weakref.ref(self))

        monkeypatch.setattr(PipelinesCoordinator, "__init__", recording_init)
        DesignCampaign(four_targets, config).run()
        coordinators.clear()
        gc.collect()
        return coordinators

    def _config(self, cap):
        return CampaignConfig(
            protocol="im-rp",
            seed=3,
            n_cycles=3,
            n_sequences=4,
            spawn_policy=SubPipelinePolicy(quality_margin=0.03, max_per_pipeline=2),
            max_in_flight_pipelines=cap,
        )

    @pytest.mark.parametrize("cap", [2, AUTO_IN_FLIGHT])
    def test_dropped_campaign_leaves_no_cyclic_garbage(self, monkeypatch, four_targets, cap):
        config = self._config(cap)
        coordinators = self._coordinators(monkeypatch, four_targets, config)
        gc.disable()
        try:
            result = DesignCampaign(four_targets, config).run()
            assert result.n_subpipelines > 0
            del result
            (coordinator,) = coordinators
            assert coordinator() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("cap", [2, AUTO_IN_FLIGHT])
    def test_campaign_abandoned_between_steps_is_freed(
        self, monkeypatch, four_targets, cap
    ):
        """An observer that raises ends the run with events still pending.

        Those events' bound methods point back at the agent, which holds the
        loop; the campaign drops them as the exception leaves its step loop,
        so reference counting frees the whole run.
        """
        config = self._config(cap)
        coordinators = self._coordinators(monkeypatch, four_targets, config)
        seen = []

        def observer(state):
            seen.append(state.cycle)
            if state.cycle == 2:
                raise _Abandoned()

        gc.disable()
        try:
            try:
                DesignCampaign(four_targets, config).run_stepwise(on_state=observer)
            except _Abandoned:
                pass
            assert seen == [1, 2]
            (coordinator,) = coordinators
            assert coordinator() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDecisionStepCost:
    """The decision step scores one pipeline per completed cycle, not the cohort."""

    @pytest.mark.parametrize("cap", [None, AUTO_IN_FLIGHT])
    def test_incremental_composites_match_full_recompute(self, monkeypatch, cap):
        checked = []

        def check(coordinator):
            expected = {
                pipeline.uid: composite_score(pipeline.latest_metrics)
                for pipeline in coordinator._pipelines.values()
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
    def test_single_pipeline_record(self, small_control_result):
        assert len(small_control_result.pipelines) == 1
        record = small_control_result.pipelines[0]
        assert record.uid == ControlProtocol.PIPELINE_UID
        assert record.parent_uid is None
        assert record.status is PipelineStatus.COMPLETED

    def test_trajectory_count_is_targets_times_cycles(self, four_targets):
        result = _control_campaign(four_targets, n_cycles=3).run()
        assert result.n_trajectories == len(four_targets) * 3

    def test_sequential_execution_never_overlaps(self, four_targets):
        campaign = _control_campaign(four_targets[:2], n_cycles=1)
        campaign.run()
        intervals = campaign.platform.profiler.resource_intervals
        assert len(intervals) == 2 * 7
        for earlier, later in zip(intervals, intervals[1:]):
            assert later.start >= earlier.end - 1e-9

    def test_needs_targets(self, platform, models, durations, four_targets):
        with pytest.raises(CampaignError, match="at least one target"):
            ControlProtocol(
                platform, models, durations, PipelineConfig(adaptive=False), []
            )
        # Pipelines are keyed by target name, one per started target.
        with pytest.raises(CampaignError, match="unique"):
            ControlProtocol(
                platform, models, durations, PipelineConfig(adaptive=False),
                [four_targets[0], four_targets[0]],
            )

    def test_rejects_an_adaptive_config(self, platform, models, durations, four_targets):
        with pytest.raises(ConfigurationError, match="without adaptivity"):
            ControlProtocol(
                platform, models, durations, PipelineConfig(), four_targets[:1]
            )

    def test_every_cycle_accepted_without_adaptivity(self, small_control_result):
        cycles = small_control_result.pipelines[0].cycles
        assert len(cycles) == 4 * 2
        assert all(cycle.accepted for cycle in cycles)
        assert all(not cycle.adaptive for cycle in cycles)

    @pytest.mark.parametrize("protocol", ["cont-v", "cont-v-ranked"])
    def test_adaptive_only_knobs_change_nothing(self, monkeypatch, four_targets, protocol):
        """The control's config is not adaptive, so every cycle is accepted:
        the retry budget, the acceptance policy and the adaptivity schedule
        change no outcome, no task name and no snapshot."""
        names, _ = _record_run_tasks(monkeypatch)

        def observed(**overrides):
            names.clear()
            states = []
            # Each state is encoded while the observer holds it, as a save
            # would encode it.
            result = _control_campaign(
                four_targets, protocol=protocol, **overrides
            ).run_stepwise(on_state=lambda state: states.append(state.as_dict()))
            # Profiler task ids come from a process-global counter, so they
            # differ between two runs in one process; they are labels only.
            return (
                json.dumps(result.as_dict(), sort_keys=True),
                list(names),
                [
                    re.sub(r'"task\.\d+"', '"task"', json.dumps(state))
                    for state in states
                ],
            )

        reference = observed()
        assert observed(
            max_retries=1,
            acceptance=AcceptancePolicy(min_delta=0.5, strict=True, metric="pae"),
            adaptivity_schedule=(False, True),
        ) == reference
