"""Tests for trajectory records and decision policies."""

from __future__ import annotations

import pytest

from repro.core.decision import AcceptancePolicy, SubPipelinePolicy
from repro.core.snapshot import decode_cycle_result, encode_cycle_result
from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import ConfigurationError, PipelineError
from repro.protein.metrics import QualityMetrics, composite_score


def _metrics(plddt=75.0, ptm=0.7, pae=10.0):
    return QualityMetrics(plddt=plddt, ptm=ptm, interchain_pae=pae)


def _trajectory(accepted=True, cycle=0, retry=0):
    return Trajectory(
        trajectory_id=f"p.c{cycle}.r{retry}",
        pipeline_uid="p",
        target="NHERF3",
        cycle=cycle,
        retry_index=retry,
        sequence_name="design",
        sequence="ACD",
        metrics=_metrics(),
        fitness=0.5,
        accepted=accepted,
    )


class TestTrajectory:
    def test_negative_cycle_rejected(self):
        with pytest.raises(PipelineError):
            Trajectory(
                trajectory_id="t", pipeline_uid="p", target="x", cycle=-1, retry_index=0,
                sequence_name="s", sequence="ACD", metrics=_metrics(), fitness=0.5,
                accepted=True,
            )


class TestCycleResult:
    def test_counts_every_evaluated_trajectory(self):
        rejected = _trajectory(accepted=False, retry=0)
        accepted = _trajectory(accepted=True, retry=1)
        cycle = CycleResult(
            pipeline_uid="p", target="x", cycle=0, accepted=True,
            best_metrics=_metrics(), best_sequence="ACD",
            trajectories=[rejected, accepted],
        )
        assert len(cycle.trajectories) == 2

    def test_rejected_cycle_encodes_without_best_metrics(self):
        cycle = CycleResult(
            pipeline_uid="p", target="x", cycle=0, accepted=False,
            best_metrics=None, best_sequence="ACD",
            trajectories=[_trajectory(accepted=False)],
        )
        assert encode_cycle_result(cycle)["best_metrics"] is None
        assert decode_cycle_result(encode_cycle_result(cycle)) == cycle


class TestAcceptancePolicy:
    def test_first_iteration_always_accepts(self):
        assert AcceptancePolicy().accepts(_metrics(), None)

    def test_composite_comparison(self):
        policy = AcceptancePolicy()
        old = _metrics(70.0, 0.6, 12.0)
        assert policy.accepts(_metrics(80.0, 0.7, 9.0), old)
        assert not policy.accepts(_metrics(60.0, 0.5, 15.0), old)

    def test_min_delta_requires_margin(self):
        old = _metrics(70.0, 0.6, 12.0)
        slightly_better = _metrics(70.5, 0.605, 11.9)
        assert AcceptancePolicy(min_delta=0.0).accepts(slightly_better, old)
        assert not AcceptancePolicy(min_delta=0.2).accepts(slightly_better, old)

    def test_single_metric_modes(self):
        old = _metrics(70.0, 0.6, 12.0)
        higher_plddt_only = _metrics(75.0, 0.55, 13.0)
        assert AcceptancePolicy(metric="plddt").accepts(higher_plddt_only, old)
        assert not AcceptancePolicy(metric="ptm").accepts(higher_plddt_only, old)
        lower_pae_only = _metrics(65.0, 0.55, 9.0)
        assert AcceptancePolicy(metric="pae").accepts(lower_pae_only, old)

    def test_strict_mode(self):
        old = _metrics(70.0, 0.6, 12.0)
        mixed = _metrics(90.0, 0.59, 9.0)
        assert not AcceptancePolicy(strict=True).accepts(mixed, old)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            AcceptancePolicy(metric="rmsd")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_min_delta_rejected(self, value):
        # A NaN min_delta used to reject every cycle after the first.
        with pytest.raises(ConfigurationError, match="min_delta"):
            AcceptancePolicy(min_delta=value)


class TestSubPipelinePolicy:
    def test_spawn_on_rejection(self):
        policy = SubPipelinePolicy()
        spec = policy.should_spawn(
            pipeline_uid="p", target_name="x", latest_metrics=_metrics(),
            cycle_accepted=False, cohort_median_composite=0.5,
            spawned_for_pipeline=0, spawned_total=0,
        )
        assert spec is not None and spec.reason == "cycle_rejected"

    def test_spawn_below_cohort_median(self):
        policy = SubPipelinePolicy(quality_margin=0.0)
        weak = _metrics(60.0, 0.5, 16.0)
        spec = policy.should_spawn(
            pipeline_uid="p", target_name="x", latest_metrics=weak,
            cycle_accepted=True,
            cohort_median_composite=composite_score(weak) + 0.1,
            spawned_for_pipeline=0, spawned_total=0,
        )
        assert spec is not None and spec.reason == "below_cohort_median"

    def test_no_spawn_above_cohort_median(self):
        policy = SubPipelinePolicy(quality_margin=0.0)
        strong = _metrics(95.0, 0.95, 4.0)
        spec = policy.should_spawn(
            pipeline_uid="p", target_name="x", latest_metrics=strong,
            cycle_accepted=True,
            cohort_median_composite=composite_score(strong) - 0.2,
            spawned_for_pipeline=0, spawned_total=0,
        )
        assert spec is None

    def test_budgets_block_spawning(self):
        policy = SubPipelinePolicy(max_per_pipeline=1, max_total=2)
        kwargs = dict(
            pipeline_uid="p", target_name="x", latest_metrics=_metrics(),
            cycle_accepted=False, cohort_median_composite=0.9,
        )
        assert policy.should_spawn(spawned_for_pipeline=1, spawned_total=0, **kwargs) is None
        assert policy.should_spawn(spawned_for_pipeline=0, spawned_total=2, **kwargs) is None
        assert policy.should_spawn(spawned_for_pipeline=0, spawned_total=1, **kwargs) is not None

    def test_no_spawn_without_cohort_view(self):
        policy = SubPipelinePolicy(spawn_on_rejection=False)
        assert policy.should_spawn(
            pipeline_uid="p", target_name="x", latest_metrics=_metrics(),
            cycle_accepted=True, cohort_median_composite=None,
            spawned_for_pipeline=0, spawned_total=0,
        ) is None

    def test_cohort_median_helper(self):
        assert SubPipelinePolicy.cohort_median({}) is None
        assert SubPipelinePolicy.cohort_median({"a": 0.2, "b": 0.4}) == pytest.approx(0.3)
        assert SubPipelinePolicy.cohort_median({"a": 0.2, "b": 0.4, "c": 0.9}) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SubPipelinePolicy(quality_margin=-0.1)
        with pytest.raises(ConfigurationError):
            SubPipelinePolicy(subpipeline_cycles=0)
        with pytest.raises(ConfigurationError, match="max_per_pipeline"):
            SubPipelinePolicy(max_per_pipeline=-1)
        with pytest.raises(ConfigurationError, match="max_total"):
            SubPipelinePolicy(max_total=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_quality_margin_rejected(self, value):
        # A NaN margin used to never spawn a below-median sub-pipeline.
        with pytest.raises(ConfigurationError, match="quality_margin"):
            SubPipelinePolicy(quality_margin=value)
