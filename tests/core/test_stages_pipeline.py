"""Tests for the stage factory and the pipeline state machine."""

from __future__ import annotations

import pytest

from repro.core.decision import AcceptancePolicy
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus
from repro.exceptions import ConfigurationError, PipelineError
from repro.protein.folding import FoldingResult
from repro.runtime.durations import TaskKind
from repro.runtime.states import TaskState
from repro.runtime.task import Task, TaskDescription


def run_task_inline(description: TaskDescription) -> Task:
    """Execute a task description synchronously (no platform needed)."""
    task = Task(description)
    task.advance(TaskState.TMGR_SCHEDULING)
    task.advance(TaskState.AGENT_SCHEDULING)
    task.advance(TaskState.EXECUTING)
    try:
        task.result = description.payload() if description.payload else None
        task.advance(TaskState.DONE)
    except Exception as exc:  # pragma: no cover - exercised via failure tests
        task.exception = exc
        task.advance(TaskState.FAILED)
    return task


def drive(pipeline: Pipeline, fail_stage: str | None = None, max_steps: int = 10_000):
    """Drive a pipeline synchronously until it finishes; returns all tasks run."""
    queue = list(pipeline.start())
    executed = []
    steps = 0
    while queue:
        description = queue.pop(0)
        if fail_stage is not None and description.metadata.get("stage") == fail_stage:
            task = Task(description)
            task.advance(TaskState.TMGR_SCHEDULING)
            task.advance(TaskState.AGENT_SCHEDULING)
            task.advance(TaskState.EXECUTING)
            task.exception = RuntimeError("injected failure")
            task.stderr = "injected failure"
            task.advance(TaskState.FAILED)
        else:
            task = run_task_inline(description)
        executed.append(task)
        step = pipeline.advance(task)
        queue.extend(step.new_tasks)
        steps += 1
        if steps > max_steps:
            raise AssertionError("pipeline did not converge")
    return executed


class TestStageFactory:
    def test_generation_task_shape(self, factory, target):
        description = factory.sequence_generation("p1", target, target.complex, 0, 10)
        assert description.kind == TaskKind.MPNN_GENERATE.value
        assert description.request.gpus == 1
        assert description.metadata["stage"] == "sequence_generation"
        assert description.metadata["pipeline_uid"] == "p1"
        candidates = description.payload()
        assert len(candidates) == 10

    def test_ranking_task_orders_candidates(self, factory, target, models):
        candidates = models.mpnn.generate(target.complex, target.landscape, n_sequences=5)
        description = factory.sequence_ranking("p1", target, 0, candidates)
        ranked = description.payload()
        scores = [scored.log_likelihood for scored in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_selection_task_builds_fasta(self, factory, target, models):
        candidates = models.mpnn.generate(target.complex, target.landscape, n_sequences=3)
        description = factory.sequence_selection("p1", target, 0, candidates[0], 0)
        result = description.payload()
        assert result["fasta"].startswith(">")
        assert result["selected_name"] == candidates[0].sequence.name

    def test_msa_and_inference_split(self, factory, target, models):
        candidates = models.mpnn.generate(target.complex, target.landscape, n_sequences=1)
        msa = factory.structure_msa("p1", target, 0, candidates[0].sequence, 0)
        inference = factory.structure_inference(
            "p1", target, target.complex, 0, candidates[0].sequence, 0
        )
        assert msa.request.gpus == 0 and msa.request.cpu_cores >= 4
        assert inference.request.gpus == 1
        assert msa.payload()["msa_depth"] > 1
        folding_result = inference.payload()
        assert isinstance(folding_result, FoldingResult)

    def test_scoring_and_compare_tasks(self, factory, target, models):
        folding_result = models.folding.predict(target.complex, target.landscape)
        scoring = factory.scoring("p1", target, 0, folding_result, 0)
        payload = scoring.payload()
        assert "energy" in payload and "composite" in payload
        compare = factory.compare(
            "p1", target, 0, folding_result.metrics, None, AcceptancePolicy(), 0
        )
        assert compare.payload()["accepted"] is True


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(n_cycles=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(adaptivity_schedule=(True,), n_cycles=2)

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
        assert pipeline.n_trajectories >= 3

    def test_control_pipeline_always_accepts(self, factory, target):
        pipeline = Pipeline(
            "ctrl", target, factory,
            PipelineConfig(n_cycles=3, n_sequences=6, adaptive=False, random_selection=True),
        )
        drive(pipeline)
        assert pipeline.status is PipelineStatus.COMPLETED
        # No retries ever happen without adaptive comparison.
        assert pipeline.n_trajectories == 3
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
        drive(pipeline, fail_stage="structure_inference")
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

    def test_best_trajectory_is_accepted_maximum(self, factory, target):
        pipeline = Pipeline("p11", target, factory, PipelineConfig(n_cycles=3, n_sequences=6))
        drive(pipeline)
        best = pipeline.best_trajectory()
        assert best is not None and best.accepted
        accepted = [t for t in pipeline.trajectories if t.accepted]
        assert best.metrics.composite() == max(t.metrics.composite() for t in accepted)

    def test_as_dict_summary(self, factory, target):
        pipeline = Pipeline("p12", target, factory, PipelineConfig(n_cycles=1, n_sequences=4))
        drive(pipeline)
        summary = pipeline.as_dict()
        assert summary["uid"] == "p12"
        assert summary["status"] == "COMPLETED"
        assert summary["cycles_completed"] == 1
