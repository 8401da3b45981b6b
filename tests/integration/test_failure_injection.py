"""Failure-injection integration tests.

The runtime must degrade gracefully when application payloads fail: the
failing pipeline ends in FAILED, its resources are released, and every other
pipeline completes unaffected.
"""

from __future__ import annotations

import pytest

from repro.core.coordinator import PipelinesCoordinator
from repro.core.decision import SubPipelinePolicy
from repro.core.pipeline import PipelineConfig, PipelineStatus, StageModels
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction


class _FlakyAlphaFold(SurrogateAlphaFold):
    """A folding surrogate that crashes for one specific target."""

    def __init__(self, poison_target: str, **kwargs):
        super().__init__(**kwargs)
        self.poison_target = poison_target
        self.failures = 0

    def predict(self, complex_structure, landscape, sequence=None, *, stream=()):
        if complex_structure.name == self.poison_target:
            self.failures += 1
            raise RuntimeError(f"GPU OOM while folding {complex_structure.name}")
        return super().predict(complex_structure, landscape, sequence, stream=stream)


@pytest.fixture()
def flaky_models(four_targets):
    return StageModels(
        mpnn=SurrogateProteinMPNN(seed=21),
        folding=_FlakyAlphaFold(poison_target=four_targets[1].name, seed=22),
        scoring=ScoringFunction(),
    )


class TestPayloadFailureIsolation:
    def test_one_failing_target_does_not_poison_the_campaign(
        self, task_manager, flaky_models, four_targets
    ):
        coordinator = PipelinesCoordinator(
            task_manager,
            flaky_models,
            PipelineConfig(n_cycles=2, n_sequences=4),
            spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
        )
        coordinator.add_targets(four_targets)
        while not coordinator.step_cycle():
            pass
        records = coordinator.records()

        by_target = {record.target: record for record in records}
        poisoned = by_target[four_targets[1].name]
        assert poisoned.status is PipelineStatus.FAILED
        assert flaky_models.folding.failures >= 1
        for target in four_targets:
            if target.name == four_targets[1].name:
                continue
            assert by_target[target.name].status is PipelineStatus.COMPLETED

        # Every device is back in the free pool after the campaign.
        allocator = task_manager.platform.allocator
        assert allocator.busy_cores() == 0
        assert allocator.free_gpus() == task_manager.platform.spec.total_gpus

    def test_failed_task_recorded_in_agent(self, task_manager, flaky_models, four_targets):
        coordinator = PipelinesCoordinator(
            task_manager,
            flaky_models,
            PipelineConfig(n_cycles=1, n_sequences=4),
            spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
        )
        finished = []
        task_manager.agent.on_completion(finished.append)
        coordinator.add_targets(four_targets)
        while not coordinator.step_cycle():
            pass
        failed = [task for task in finished if task.failed]
        assert failed
        assert all("GPU OOM" in str(task.exception) for task in failed)


class TestResultFinalDesignMetrics:
    def test_final_design_metrics_cover_all_targets(self, small_imrp_result, four_targets):
        final = small_imrp_result.final_design_metrics()
        assert set(final) == {target.name for target in four_targets}

    def test_final_design_metrics_take_latest_cycle(self, small_imrp_result):
        final = small_imrp_result.final_design_metrics()
        for record in small_imrp_result.pipelines:
            accepted = [c for c in record.cycles if c.accepted and c.best_metrics]
            if not accepted:
                continue
            latest = max(accepted, key=lambda c: c.cycle)
            target_final = final[latest.target]
            # The chosen metrics come from a cycle at least as late as any
            # accepted cycle of this pipeline.
            assert target_final is not None

    def test_control_final_design_metrics_from_merged_record(self, small_control_result):
        final = small_control_result.final_design_metrics()
        assert len(final) == 4
        for metrics in final.values():
            assert 0.0 <= metrics.ptm <= 1.0
