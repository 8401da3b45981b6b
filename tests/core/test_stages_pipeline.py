"""Tests for the pipeline state machine and the stage tasks it builds."""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline as pipeline_module
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.decision import AcceptancePolicy
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus, StageModels
from repro.core.snapshot import encode_rng_state
from repro.exceptions import ConfigurationError, PipelineError
from repro.protein.folding import MSA_MODES, FoldingResult, SurrogateAlphaFold
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.protein.sequence import ScoredSequence
from repro.protein.structure import ComplexStructure
from repro.runtime.durations import TaskKind, request_for
from repro.runtime.task import Task, TaskDescription


def run_task_inline(description: TaskDescription) -> Task:
    """Execute a task description synchronously (no platform needed)."""
    task = Task(description)
    try:
        task.result = description.payload() if description.payload else None
    except Exception as exc:  # pragma: no cover - exercised via failure tests
        task.exception = exc
    return task


def drive(pipeline: Pipeline, fail_kind: TaskKind | None = None, max_steps: int = 10_000):
    """Drive a pipeline synchronously until it finishes; returns all tasks run."""
    description = pipeline.start()
    executed = []
    while description is not None:
        if fail_kind is not None and description.kind == fail_kind:
            task = Task(description)
            task.exception = RuntimeError("injected failure")
        else:
            task = run_task_inline(description)
        executed.append(task)
        description = pipeline.advance(task).task
        if len(executed) > max_steps:
            raise AssertionError("pipeline did not converge")
    return executed


def four_field_boundary(pipeline: Pipeline) -> bool:
    """Reference for ``at_cycle_boundary``, inferred from four per-cycle fields.

    The awaited stage must give the same answer at every step.
    """
    if pipeline.is_finished or pipeline.status is PipelineStatus.PENDING:
        return True
    return (
        pipeline._retry_index == 0
        and pipeline._selected is None
        and not pipeline._candidates
        and pipeline._current_folding is None
    )


def first_tasks(pipeline: Pipeline) -> dict:
    """Each kind's first task in an inline run of ``pipeline``, by kind."""
    tasks = {}
    for task in drive(pipeline):
        tasks.setdefault(task.kind, task)
    return tasks


def rejecting_pipeline(models, target) -> Pipeline:
    """A one-cycle pipeline that rejects every candidate it evaluates."""
    baseline = models.folding.predict(target.complex, target.landscape).metrics
    config = PipelineConfig(
        n_cycles=1, n_sequences=4, acceptance=AcceptancePolicy(min_delta=1.0)
    )
    return Pipeline("p1", target, models, config, starting_metrics=baseline)


def test_every_stage_has_one_builder_and_one_handler():
    for table in (pipeline_module._STAGE_TASKS, pipeline_module._STAGE_HANDLERS):
        # Every kind exactly once, in stage order, each with its own method.
        assert list(table) == list(TaskKind)
        assert len(set(table.values())) == len(TaskKind)


class TestStageTasks:
    def test_generation_task_shape(self, models, target):
        description = Pipeline("p1", target, models, PipelineConfig(n_sequences=10)).start()
        assert description.kind == TaskKind.MPNN_GENERATE.value
        assert description.request.gpus == 1
        assert description.metadata["pipeline_uid"] == "p1"
        candidates = description.payload()
        assert len(candidates) == 10

    def test_ranking_task_orders_candidates(self, models, target):
        pipeline = Pipeline("p1", target, models, PipelineConfig(n_cycles=1, n_sequences=5))
        ranked = first_tasks(pipeline)[TaskKind.SEQUENCE_RANK].description.payload()
        scores = [scored.log_likelihood for scored in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_selection_task_is_named_for_its_retry(self, models, target):
        selections = [
            task for task in drive(rejecting_pipeline(models, target))
            if task.kind == TaskKind.SEQUENCE_SELECT
        ]
        assert selections[2].name == "p1.c0.r2.select"

    def test_msa_and_inference_split(self, models, target):
        tasks = first_tasks(Pipeline("p1", target, models, PipelineConfig(n_cycles=1)))
        msa, inference = tasks[TaskKind.AF_MSA], tasks[TaskKind.AF_INFERENCE]
        assert msa.request.gpus == 0 and msa.request.cpu_cores >= 4
        assert inference.request.gpus == 1
        folding_result = inference.description.payload()
        assert isinstance(folding_result, FoldingResult)

    def test_single_sequence_mode_reaches_the_folding_surrogate(self, four_targets):
        campaign = DesignCampaign(four_targets, CampaignConfig(msa_mode="single_sequence"))
        assert campaign.models.folding.msa_mode == "single_sequence"

    def test_single_sequence_mode_takes_the_same_simulated_time(self, four_targets):
        # The mode only scales the metric noise; CONT-V's random selection
        # then runs the same tasks, so only the metrics differ.
        full, single = (
            DesignCampaign(
                four_targets,
                CampaignConfig(
                    protocol="cont-v", msa_mode=mode, seed=7, n_cycles=2, n_sequences=4
                ),
            ).run()
            for mode in MSA_MODES
        )
        assert single.makespan_hours == full.makespan_hours
        assert single.total_task_hours == full.total_task_hours
        assert single.iteration_summary() != full.iteration_summary()

    def test_scoring_and_compare_tasks(self, models, target):
        executed = drive(rejecting_pipeline(models, target))
        scoring, compare = (
            [task for task in executed if task.kind == kind][1]
            for kind in (TaskKind.SCORING, TaskKind.COMPARE)
        )
        assert (scoring.name, scoring.kind) == ("p1.c0.r1.score", TaskKind.SCORING.value)
        assert (compare.name, compare.kind) == ("p1.c0.r1.compare", TaskKind.COMPARE.value)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestStageContract:
    """Each stage task a pipeline builds returns exactly what its handler reads."""

    def test_selection_and_msa_tasks_carry_no_payload(self, models, target):
        tasks = first_tasks(Pipeline("p1", target, models, PipelineConfig(n_cycles=1)))
        assert tasks[TaskKind.SEQUENCE_SELECT].description.payload is None
        assert tasks[TaskKind.AF_MSA].description.payload is None

    def test_scoring_returns_the_total_energy(self, models, target):
        tasks = first_tasks(Pipeline("p1", target, models, PipelineConfig(n_cycles=1)))
        folding_result = tasks[TaskKind.AF_INFERENCE].result
        energy = tasks[TaskKind.SCORING].description.payload()
        want = ScoringFunction().score(folding_result.structure).total
        assert type(energy) is float and _bits(energy) == _bits(want)

    @pytest.mark.parametrize("min_delta", [0.0, 1e9])
    def test_compare_returns_the_policys_decision(self, models, target, min_delta):
        policy = AcceptancePolicy(min_delta=min_delta)
        config = PipelineConfig(n_cycles=1, n_sequences=4, acceptance=policy)
        baseline = models.folding.predict(target.complex, target.landscape).metrics
        for previous in (None, baseline):
            pipeline = Pipeline("p1", target, models, config, starting_metrics=previous)
            tasks = first_tasks(pipeline)
            new = tasks[TaskKind.AF_INFERENCE].result.metrics
            decision = tasks[TaskKind.COMPARE].description.payload()
            assert decision is policy.accepts(new, previous)

    @pytest.mark.parametrize("kind", [kind.value for kind in TaskKind])
    def test_task_kind_and_metadata_hold_only_what_is_read(self, models, target, kind):
        pipeline = Pipeline("p1", target, models, PipelineConfig(n_cycles=1, n_sequences=3))
        description = first_tasks(pipeline)[kind].description
        # The kind names the stage; the request depends on the kind alone;
        # the metadata is what the coordinator and the duration model read.
        assert description.kind == kind
        assert description.request == request_for(kind)
        want = {"pipeline_uid": "p1", "n_residues": target.complex.total_residues}
        if kind in (TaskKind.MPNN_GENERATE, TaskKind.SEQUENCE_RANK):
            want["n_sequences"] = 3
        assert description.metadata == want

    def test_design_records_hold_only_their_kept_fields(self):
        def names(cls):
            return [item.name for item in dataclasses.fields(cls)]

        assert names(FoldingResult) == ["metrics", "structure", "fitness"]
        assert names(ScoredSequence) == ["sequence", "log_likelihood"]
        assert names(ComplexStructure) == [
            "name", "receptor", "peptide", "backbone_quality", "designable_positions",
        ]


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(n_cycles=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(adaptivity_schedule=(True,), n_cycles=2)
        with pytest.raises(ConfigurationError, match="n_sequences"):
            PipelineConfig(n_sequences=0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            PipelineConfig(max_retries=0)

    def test_adaptivity_schedule(self):
        config = PipelineConfig(n_cycles=3, adaptivity_schedule=(True, False, True))
        assert config.adaptive_for_cycle(0) is True
        assert config.adaptive_for_cycle(1) is False
        config_off = PipelineConfig(adaptive=False)
        assert config_off.adaptive_for_cycle(0) is False


class TestPipeline:
    def test_adaptive_pipeline_completes_all_cycles(self, models, target):
        pipeline = Pipeline("p1", target, models, PipelineConfig(n_cycles=3, n_sequences=6))
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        accepted = [c for c in pipeline.cycle_results if c.accepted]
        assert len(accepted) == 3
        assert len(pipeline.trajectories) >= 3

    def test_control_pipeline_always_accepts(self, models, target):
        pipeline = Pipeline(
            "ctrl", target, models,
            PipelineConfig(n_cycles=3, n_sequences=6, adaptive=False, random_selection=True),
        )
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        # No retries ever happen without adaptive comparison.
        assert len(pipeline.trajectories) == 3
        assert all(c.retries_used == 0 for c in pipeline.cycle_results)

    def test_quality_improves_over_native_baseline(self, models, target):
        pipeline = Pipeline("p2", target, models, PipelineConfig(n_cycles=4, n_sequences=8))
        drive(pipeline)
        baseline = models.folding.predict(target.complex, target.landscape).metrics
        final = pipeline.latest_metrics
        assert final is not None
        assert final.composite() > baseline.composite()

    def test_cycle_feeds_refined_structure_forward(self, models, target):
        pipeline = Pipeline("p3", target, models, PipelineConfig(n_cycles=2, n_sequences=6))
        drive(pipeline)
        assert pipeline.current_complex.backbone_quality > target.complex.backbone_quality
        assert pipeline.current_complex.receptor.sequence.residues != (
            target.complex.receptor.sequence.residues
        )

    def test_rejection_falls_back_to_next_ranked_sequence(self, models, target):
        # An impossible acceptance threshold forces rejections; the pipeline
        # must walk down the ranked list and finally terminate.
        config = PipelineConfig(
            n_cycles=4,
            n_sequences=5,
            max_retries=10,
            acceptance=AcceptancePolicy(min_delta=1.0),
        )
        pipeline = Pipeline("p4", target, models, config)
        drive(pipeline)
        # First cycle accepts (no previous metrics), second exhausts retries.
        assert pipeline.status is PipelineStatus.TERMINATED
        retries = {t.retry_index for t in pipeline.trajectories if t.cycle == 1}
        assert retries == set(range(5))  # every ranked candidate was evaluated

    def test_retry_budget_capped_by_max_retries(self, models, target):
        config = PipelineConfig(
            n_cycles=2, n_sequences=8, max_retries=3,
            acceptance=AcceptancePolicy(min_delta=1.0),
        )
        pipeline = Pipeline("p5", target, models, config)
        drive(pipeline)
        assert pipeline.status is PipelineStatus.TERMINATED
        second_cycle = [t for t in pipeline.trajectories if t.cycle == 1]
        assert len(second_cycle) == 3

    def test_task_failure_fails_pipeline(self, models, target):
        pipeline = Pipeline("p6", target, models, PipelineConfig(n_cycles=2, n_sequences=4))
        drive(pipeline, fail_kind=TaskKind.AF_INFERENCE)
        assert pipeline.status is PipelineStatus.FAILED

    def test_start_twice_rejected(self, models, target):
        pipeline = Pipeline("p7", target, models, PipelineConfig(n_cycles=1))
        pipeline.start()
        with pytest.raises(PipelineError):
            pipeline.start()

    def test_foreign_task_rejected(self, models, target):
        pipeline = Pipeline("p8", target, models, PipelineConfig(n_cycles=1))
        pipeline.start()
        foreign = run_task_inline(
            Pipeline("other-pipeline", target, models, PipelineConfig(n_sequences=2)).start()
        )
        with pytest.raises(PipelineError):
            pipeline.advance(foreign)

    def test_subpipeline_flag_propagates_to_trajectories(self, models, target):
        pipeline = Pipeline(
            "p9.sub001", target, models, PipelineConfig(n_cycles=1, n_sequences=4),
            parent_uid="p9",
        )
        drive(pipeline)
        assert pipeline.is_subpipeline
        assert all(t.is_subpipeline for t in pipeline.trajectories)

    def test_non_adaptive_final_cycle_schedule(self, models, target):
        config = PipelineConfig(
            n_cycles=3, n_sequences=6,
            adaptivity_schedule=(True, True, False),
        )
        pipeline = Pipeline("p10", target, models, config)
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        assert pipeline.cycle_results[-1].adaptive is False

    def test_trajectories_record_the_scoring_and_compare_results(self, models, target):
        # Cycle 0 accepts (nothing to compare with); cycle 1 rejects every
        # candidate.
        config = PipelineConfig(
            n_cycles=2, n_sequences=5, acceptance=AcceptancePolicy(min_delta=1.0)
        )
        pipeline = Pipeline("p16", target, models, config)
        executed = drive(pipeline)
        stage_results = {
            kind: [t.result for t in executed if t.kind == kind]
            for kind in (TaskKind.SCORING, TaskKind.COMPARE)
        }
        trajectories = pipeline.trajectories
        assert [t.energy_total for t in trajectories] == stage_results[TaskKind.SCORING]
        assert [t.accepted for t in trajectories] == stage_results[TaskKind.COMPARE]
        assert stage_results[TaskKind.COMPARE] == [True] + [False] * 5

    def test_latest_metrics_are_the_last_accepted_cycle(self, models, target):
        pipeline = Pipeline("p11", target, models, PipelineConfig(n_cycles=3, n_sequences=6))
        assert pipeline.latest_metrics is None
        drive(pipeline)
        accepted = [c for c in pipeline.cycle_results if c.accepted]
        assert accepted
        assert pipeline.latest_metrics == accepted[-1].best_metrics

    def test_empty_uid_rejected(self, models, target):
        with pytest.raises(ConfigurationError, match="uid must be non-empty"):
            Pipeline("", target, models)

    def test_resume_at_a_cycle_boundary_rederives_the_generation_task(self, models, target):
        pipeline = Pipeline("p13", target, models, PipelineConfig(n_cycles=2, n_sequences=4))
        description = pipeline.start()
        while True:
            step = pipeline.advance(run_task_inline(description))
            if step.completed_cycle is not None:
                break
            description = step.task
        assert pipeline.at_cycle_boundary and not pipeline.is_finished
        resumed, emitted = pipeline.pending_task(), step.task
        assert resumed.kind == emitted.kind == TaskKind.MPNN_GENERATE.value
        assert resumed.metadata == emitted.metadata

    def test_finished_pipeline_has_nothing_to_resume(self, models, target):
        pipeline = Pipeline("p14", target, models, PipelineConfig(n_cycles=1, n_sequences=4))
        assert pipeline.pending_task() is None  # not started yet
        drive(pipeline)
        assert pipeline.is_finished
        assert pipeline.pending_task() is None

    @pytest.mark.parametrize(
        "random_selection, stale_kind, awaited_kind",
        [
            # Used to emit a second ranking task.
            (False, "mpnn_generate", "sequence_rank"),
            # Used to make a second selection-RNG draw.
            (True, "sequence_rank", "af_msa"),
        ],
    )
    def test_advance_rejects_a_task_it_no_longer_awaits(
        self, models, target, random_selection, stale_kind, awaited_kind
    ):
        config = PipelineConfig(n_cycles=1, n_sequences=4, random_selection=random_selection)
        pipeline = Pipeline("p15", target, models, config)
        consumed = {}
        description = pipeline.start()
        while description.kind != awaited_kind:
            task = run_task_inline(description)
            consumed[description.kind] = task
            description = pipeline.advance(task).task
        rng_state = encode_rng_state(pipeline._rng)
        with pytest.raises(PipelineError, match=f"awaits a {awaited_kind} task"):
            pipeline.advance(consumed[stale_kind])
        assert encode_rng_state(pipeline._rng) == rng_state
        assert pipeline.pending_task().name == description.name
        assert pipeline.advance(run_task_inline(description)).task is not None


PIPELINE_CONFIGS = {
    "adaptive": {},
    "random-selection": {"random_selection": True},
    "scheduled-off": {"adaptivity_schedule": (True, False, True)},
}


class TestPendingTask:
    """``pending_task()`` rebuilds the outstanding task and changes nothing."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_sequences=st.integers(min_value=1, max_value=6),
        max_retries=st.integers(min_value=1, max_value=4),
        flavour=st.sampled_from(sorted(PIPELINE_CONFIGS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebuilds_the_outstanding_task_without_side_effects(
        self, target, seed, n_sequences, max_retries, flavour
    ):
        models = StageModels(
            mpnn=SurrogateProteinMPNN(seed=seed),
            folding=SurrogateAlphaFold(seed=seed + 1),
            scoring=ScoringFunction(),
        )
        config = PipelineConfig(
            n_cycles=3,
            n_sequences=n_sequences,
            max_retries=max_retries,
            selection_seed=seed,
            **PIPELINE_CONFIGS[flavour],
        )
        checked = Pipeline("prop", target, models, config)
        assert checked.at_cycle_boundary == four_field_boundary(checked)
        description = checked.start()
        while description is not None:
            rng_state = encode_rng_state(checked._rng)
            for rebuilt in (checked.pending_task(), checked.pending_task()):
                assert rebuilt.name == description.name
                assert rebuilt.kind == description.kind
                assert rebuilt.request == description.request
                assert rebuilt.metadata == description.metadata
            assert encode_rng_state(checked._rng) == rng_state
            assert checked.at_cycle_boundary == four_field_boundary(checked)
            description = checked.advance(run_task_inline(description)).task
        assert checked.at_cycle_boundary == four_field_boundary(checked)

        plain = Pipeline("prop", target, models, config)
        drive(plain)
        assert checked.status is plain.status
        assert checked.trajectories == plain.trajectories
        assert checked.cycle_results == plain.cycle_results
