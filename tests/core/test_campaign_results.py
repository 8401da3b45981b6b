"""Tests for the campaign API, result aggregation and campaign comparison."""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.results import net_deltas_from_summary
from repro.exceptions import CampaignError
from repro.utils.serialization import to_jsonable
from repro.utils.stats import net_delta_percent


class TestCampaignConfig:
    def test_protocol_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(protocol="magic")

    def test_parameter_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(n_cycles=0)
        for speedup in (0.0, float("nan"), float("inf")):
            with pytest.raises(CampaignError, match="finite and positive"):
                CampaignConfig(duration_speedup=speedup)


class TestDesignCampaign:
    def test_needs_targets_and_unique_names(self, four_targets):
        with pytest.raises(CampaignError):
            DesignCampaign([], CampaignConfig())
        with pytest.raises(CampaignError):
            DesignCampaign([four_targets[0], four_targets[0]], CampaignConfig())

    def test_platform_unavailable_before_run(self, four_targets):
        campaign = DesignCampaign(four_targets, CampaignConfig(n_cycles=1))
        with pytest.raises(CampaignError):
            campaign.platform
        with pytest.raises(CampaignError):
            campaign.result

    def test_run_is_idempotent(self, four_targets):
        campaign = DesignCampaign(
            four_targets, CampaignConfig(protocol="im-rp", n_cycles=1, n_sequences=4, seed=3)
        )
        first = campaign.run()
        second = campaign.run()
        assert first is second

    def test_imrp_result_counts(self, small_imrp_result, four_targets):
        result = small_imrp_result
        assert result.approach == "IM-RP"
        assert result.n_pipelines == 4
        assert result.n_trajectories >= 4 * result.n_cycles
        assert set(result.baseline_metrics) == {t.name for t in four_targets}
        assert 0.0 < result.cpu_utilization <= 1.0
        assert 0.0 <= result.gpu_utilization <= 1.0
        assert result.makespan_hours > 0
        assert result.total_task_hours >= result.makespan_hours * result.cpu_utilization

    def test_control_result_counts(self, small_control_result, four_targets):
        result = small_control_result
        assert result.approach == "CONT-V"
        assert result.n_pipelines == 1
        assert result.n_subpipelines == 0
        assert result.n_trajectories == len(four_targets) * result.n_cycles
        assert result.structures_per_pipeline == pytest.approx(4.0)

    def test_iteration_summary_structure(self, small_imrp_result):
        summary = small_imrp_result.iteration_summary()
        assert 0 in summary  # baseline iteration
        assert max(summary) >= 1
        for iteration_stats in summary.values():
            assert {"plddt", "ptm", "interchain_pae"} <= set(iteration_stats)
            for metric_stats in iteration_stats.values():
                assert metric_stats["half_std"] == pytest.approx(metric_stats["std"] / 2)

    def test_net_deltas_signs(self, small_imrp_result):
        deltas = small_imrp_result.net_deltas()
        # Adaptive designs improve confidence metrics and reduce pAE.
        assert deltas["plddt"] > 0
        assert deltas["ptm"] > 0
        assert deltas["interchain_pae"] < 0

    def test_table_row_keys(self, small_imrp_result):
        row = small_imrp_result.table_row()
        expected = {
            "approach", "n_pipelines", "n_subpipelines", "structures_per_pipeline",
            "trajectories", "cpu_utilization_pct", "gpu_utilization_pct",
            "makespan_hours", "total_task_hours", "ptm_net_delta_pct",
            "plddt_net_delta_pct", "pae_net_delta_pct",
        }
        assert expected <= set(row)

    def test_phase_totals_present_for_imrp(self, small_imrp_result):
        phases = small_imrp_result.phase_totals
        assert phases.get("bootstrap", 0) > 0
        assert phases.get("exec_setup", 0) > 0
        assert phases.get("running", 0) > 0

    def test_result_is_json_serialisable(self, small_imrp_result):
        payload = to_jsonable(small_imrp_result.as_dict())
        assert payload["approach"] == "IM-RP"

    def test_net_deltas_match_summary(self, small_imrp_result):
        summary = small_imrp_result.iteration_summary()
        deltas = small_imrp_result.net_deltas()
        first, last = min(summary), max(summary)
        for metric in ("plddt", "ptm", "interchain_pae"):
            assert deltas[metric] == pytest.approx(
                net_delta_percent(
                    summary[first][metric]["median"], summary[last][metric]["median"]
                )
            )

    def test_net_deltas_need_a_completed_iteration(self, small_imrp_result):
        baseline_only = {0: small_imrp_result.iteration_summary()[0]}
        with pytest.raises(CampaignError, match="at least a baseline"):
            net_deltas_from_summary(baseline_only)


class TestCompareCampaigns:
    def test_adaptive_beats_control(self, small_control_result, small_imrp_result):
        control, adaptive = small_control_result, small_imrp_result
        summaries = [result.iteration_summary() for result in (control, adaptive)]
        last_control, last_adaptive = (summary[max(summary)] for summary in summaries)
        for metric in ("plddt", "ptm"):
            assert last_adaptive[metric]["median"] > last_control[metric]["median"]
        assert (
            last_adaptive["interchain_pae"]["median"]
            < last_control["interchain_pae"]["median"]
        )
        assert adaptive.cpu_utilization > control.cpu_utilization
        assert adaptive.gpu_utilization > control.gpu_utilization
        assert adaptive.n_trajectories >= control.n_trajectories

    def test_each_result_labels_its_table_row(
        self, small_control_result, small_imrp_result
    ):
        assert small_control_result.table_row()["approach"] == "CONT-V"
        assert small_imrp_result.table_row()["approach"] == "IM-RP"
