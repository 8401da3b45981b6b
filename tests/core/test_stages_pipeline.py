"""Tests for the stage factory and the pipeline state machine."""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.decision import AcceptancePolicy
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus
from repro.core.snapshot import encode_rng_state
from repro.core.stages import StageFactory, StageModels
from repro.exceptions import ConfigurationError, PipelineError
from repro.protein.folding import MSA_MODES, FoldingResult, SurrogateAlphaFold
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.protein.sequence import ScoredSequence
from repro.protein.structure import ComplexStructure
from repro.runtime.durations import DurationModel, TaskKind
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


class TestStageFactory:
    def test_generation_task_shape(self, factory, target):
        description = factory.sequence_generation("p1", target, target.complex, 0, 10)
        assert description.kind == TaskKind.MPNN_GENERATE.value
        assert description.request.gpus == 1
        assert description.metadata["pipeline_uid"] == "p1"
        candidates = description.payload()
        assert len(candidates) == 10

    def test_ranking_task_orders_candidates(self, factory, target, models):
        candidates = models.mpnn.generate(target.complex, target.landscape, n_sequences=5)
        description = factory.sequence_ranking("p1", target, 0, candidates)
        ranked = description.payload()
        scores = [scored.log_likelihood for scored in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_selection_task_is_named_for_its_retry(self, factory, target):
        description = factory.sequence_selection("p1", target, 0, 2)
        assert description.name == "p1.c0.r2.select"
        assert description.kind == TaskKind.SEQUENCE_SELECT.value

    def test_msa_and_inference_split(self, factory, target, models):
        candidates = models.mpnn.generate(target.complex, target.landscape, n_sequences=1)
        msa = factory.structure_msa("p1", target, 0, 0)
        inference = factory.structure_inference(
            "p1", target, target.complex, 0, candidates[0].sequence, 0
        )
        assert msa.request.gpus == 0 and msa.request.cpu_cores >= 4
        assert inference.request.gpus == 1
        folding_result = inference.payload()
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

    def test_scoring_and_compare_tasks(self, factory, target, models):
        folding_result = models.folding.predict(target.complex, target.landscape)
        scoring = factory.scoring("p1", target, 0, folding_result, 1)
        compare = factory.compare(
            "p1", target, 0, folding_result.metrics, None, AcceptancePolicy(), 1
        )
        assert (scoring.name, scoring.kind) == ("p1.c0.r1.score", TaskKind.SCORING.value)
        assert (compare.name, compare.kind) == ("p1.c0.r1.compare", TaskKind.COMPARE.value)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: Each stage builder and the kind of the task it builds.
_STAGE_KINDS = {
    "sequence_generation": TaskKind.MPNN_GENERATE,
    "sequence_ranking": TaskKind.SEQUENCE_RANK,
    "sequence_selection": TaskKind.SEQUENCE_SELECT,
    "structure_msa": TaskKind.AF_MSA,
    "structure_inference": TaskKind.AF_INFERENCE,
    "scoring": TaskKind.SCORING,
    "compare": TaskKind.COMPARE,
}


class TestStageContract:
    """Each stage task returns exactly what its pipeline handler reads."""

    def test_selection_and_msa_tasks_carry_no_payload(self, factory, target):
        assert factory.sequence_selection("p1", target, 0, 0).payload is None
        assert factory.structure_msa("p1", target, 0, 0).payload is None

    def test_scoring_returns_the_total_energy(self, factory, target, models):
        folding_result = models.folding.predict(target.complex, target.landscape)
        energy = factory.scoring("p1", target, 0, folding_result, 0).payload()
        want = ScoringFunction().score(folding_result.structure).total
        assert type(energy) is float and _bits(energy) == _bits(want)

    @pytest.mark.parametrize("min_delta", [0.0, 1e9])
    def test_compare_returns_the_policys_decision(self, factory, target, models, min_delta):
        policy = AcceptancePolicy(min_delta=min_delta)
        baseline = models.folding.predict(target.complex, target.landscape).metrics
        new = models.folding.predict(
            target.complex, target.landscape, stream=("again",)
        ).metrics
        for previous in (None, baseline):
            decision = factory.compare("p1", target, 0, new, previous, policy, 0).payload()
            assert decision is policy.accepts(new, previous)

    @pytest.mark.parametrize("builder", sorted(_STAGE_KINDS))
    def test_task_kind_and_metadata_hold_only_what_is_read(
        self, factory, durations, target, models, builder
    ):
        folding_result = models.folding.predict(target.complex, target.landscape)
        candidates = models.mpnn.generate(target.complex, target.landscape, n_sequences=3)
        arguments = {
            "sequence_generation": (target.complex, 0, 3),
            "sequence_ranking": (0, candidates),
            "sequence_selection": (0, 0),
            "structure_msa": (0, 0),
            "structure_inference": (target.complex, 0, candidates[0].sequence, 0),
            "scoring": (0, folding_result, 0),
            "compare": (0, folding_result.metrics, None, AcceptancePolicy(), 0),
        }[builder]
        description = getattr(factory, builder)("p1", target, *arguments)
        kind = _STAGE_KINDS[builder]
        # The kind names the stage; the metadata is what the coordinator and
        # the duration model read.
        assert description.kind == kind.value
        assert description.request == durations.request_for(kind)
        want = {"pipeline_uid": "p1", "n_residues": target.complex.total_residues}
        if builder in ("sequence_generation", "sequence_ranking"):
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
    def test_adaptive_pipeline_completes_all_cycles(self, factory, target):
        pipeline = Pipeline("p1", target, factory, PipelineConfig(n_cycles=3, n_sequences=6))
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        accepted = [c for c in pipeline.cycle_results if c.accepted]
        assert len(accepted) == 3
        assert len(pipeline.trajectories) >= 3

    def test_control_pipeline_always_accepts(self, factory, target):
        pipeline = Pipeline(
            "ctrl", target, factory,
            PipelineConfig(n_cycles=3, n_sequences=6, adaptive=False, random_selection=True),
        )
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        # No retries ever happen without adaptive comparison.
        assert len(pipeline.trajectories) == 3
        assert all(c.retries_used == 0 for c in pipeline.cycle_results)

    def test_quality_improves_over_native_baseline(self, factory, target, models):
        pipeline = Pipeline("p2", target, factory, PipelineConfig(n_cycles=4, n_sequences=8))
        drive(pipeline)
        baseline = models.folding.predict(target.complex, target.landscape).metrics
        final = pipeline.latest_metrics
        assert final is not None
        assert final.composite() > baseline.composite()

    def test_cycle_feeds_refined_structure_forward(self, factory, target):
        pipeline = Pipeline("p3", target, factory, PipelineConfig(n_cycles=2, n_sequences=6))
        drive(pipeline)
        assert pipeline.current_complex.backbone_quality > target.complex.backbone_quality
        assert pipeline.current_complex.receptor.sequence.residues != (
            target.complex.receptor.sequence.residues
        )

    def test_rejection_falls_back_to_next_ranked_sequence(self, factory, target):
        # An impossible acceptance threshold forces rejections; the pipeline
        # must walk down the ranked list and finally terminate.
        config = PipelineConfig(
            n_cycles=4,
            n_sequences=5,
            max_retries=10,
            acceptance=AcceptancePolicy(min_delta=1.0),
        )
        pipeline = Pipeline("p4", target, factory, config)
        drive(pipeline)
        # First cycle accepts (no previous metrics), second exhausts retries.
        assert pipeline.status is PipelineStatus.TERMINATED
        retries = {t.retry_index for t in pipeline.trajectories if t.cycle == 1}
        assert retries == set(range(5))  # every ranked candidate was evaluated

    def test_retry_budget_capped_by_max_retries(self, factory, target):
        config = PipelineConfig(
            n_cycles=2, n_sequences=8, max_retries=3,
            acceptance=AcceptancePolicy(min_delta=1.0),
        )
        pipeline = Pipeline("p5", target, factory, config)
        drive(pipeline)
        assert pipeline.status is PipelineStatus.TERMINATED
        second_cycle = [t for t in pipeline.trajectories if t.cycle == 1]
        assert len(second_cycle) == 3

    def test_task_failure_fails_pipeline(self, factory, target):
        pipeline = Pipeline("p6", target, factory, PipelineConfig(n_cycles=2, n_sequences=4))
        drive(pipeline, fail_kind=TaskKind.AF_INFERENCE)
        assert pipeline.status is PipelineStatus.FAILED

    def test_start_twice_rejected(self, factory, target):
        pipeline = Pipeline("p7", target, factory, PipelineConfig(n_cycles=1))
        pipeline.start()
        with pytest.raises(PipelineError):
            pipeline.start()

    def test_foreign_task_rejected(self, factory, target):
        pipeline = Pipeline("p8", target, factory, PipelineConfig(n_cycles=1))
        pipeline.start()
        foreign = run_task_inline(
            factory.sequence_generation("other-pipeline", target, target.complex, 0, 2)
        )
        with pytest.raises(PipelineError):
            pipeline.advance(foreign)

    def test_subpipeline_flag_propagates_to_trajectories(self, factory, target):
        pipeline = Pipeline(
            "p9.sub001", target, factory, PipelineConfig(n_cycles=1, n_sequences=4),
            parent_uid="p9",
        )
        drive(pipeline)
        assert pipeline.is_subpipeline
        assert all(t.is_subpipeline for t in pipeline.trajectories)

    def test_non_adaptive_final_cycle_schedule(self, factory, target):
        config = PipelineConfig(
            n_cycles=3, n_sequences=6,
            adaptivity_schedule=(True, True, False),
        )
        pipeline = Pipeline("p10", target, factory, config)
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        assert pipeline.cycle_results[-1].adaptive is False

    def test_trajectories_record_the_scoring_and_compare_results(self, factory, target):
        # Cycle 0 accepts (nothing to compare with); cycle 1 rejects every
        # candidate.
        config = PipelineConfig(
            n_cycles=2, n_sequences=5, acceptance=AcceptancePolicy(min_delta=1.0)
        )
        pipeline = Pipeline("p16", target, factory, config)
        executed = drive(pipeline)
        stage_results = {
            kind: [t.result for t in executed if t.kind == kind]
            for kind in (TaskKind.SCORING, TaskKind.COMPARE)
        }
        trajectories = pipeline.trajectories
        assert [t.energy_total for t in trajectories] == stage_results[TaskKind.SCORING]
        assert [t.accepted for t in trajectories] == stage_results[TaskKind.COMPARE]
        assert stage_results[TaskKind.COMPARE] == [True] + [False] * 5

    def test_latest_metrics_are_the_last_accepted_cycle(self, factory, target):
        pipeline = Pipeline("p11", target, factory, PipelineConfig(n_cycles=3, n_sequences=6))
        assert pipeline.latest_metrics is None
        drive(pipeline)
        accepted = [c for c in pipeline.cycle_results if c.accepted]
        assert accepted
        assert pipeline.latest_metrics == accepted[-1].best_metrics

    def test_empty_uid_rejected(self, factory, target):
        with pytest.raises(ConfigurationError, match="uid must be non-empty"):
            Pipeline("", target, factory)

    def test_resume_at_a_cycle_boundary_rederives_the_generation_task(self, factory, target):
        pipeline = Pipeline("p13", target, factory, PipelineConfig(n_cycles=2, n_sequences=4))
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

    def test_finished_pipeline_has_nothing_to_resume(self, factory, target):
        pipeline = Pipeline("p14", target, factory, PipelineConfig(n_cycles=1, n_sequences=4))
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
        self, factory, target, random_selection, stale_kind, awaited_kind
    ):
        config = PipelineConfig(n_cycles=1, n_sequences=4, random_selection=random_selection)
        pipeline = Pipeline("p15", target, factory, config)
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
        factory = StageFactory(
            StageModels(
                mpnn=SurrogateProteinMPNN(seed=seed),
                folding=SurrogateAlphaFold(seed=seed + 1),
                scoring=ScoringFunction(),
            ),
            DurationModel(seed=seed),
        )
        config = PipelineConfig(
            n_cycles=3,
            n_sequences=n_sequences,
            max_retries=max_retries,
            selection_seed=seed,
            **PIPELINE_CONFIGS[flavour],
        )
        checked = Pipeline("prop", target, factory, config)
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

        plain = Pipeline("prop", target, factory, config)
        drive(plain)
        assert checked.status is plain.status
        assert checked.trajectories == plain.trajectories
        assert checked.cycle_results == plain.cycle_results
