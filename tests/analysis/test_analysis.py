"""Tests for the analysis layer: utilization, makespan, Table I and reporting."""

from __future__ import annotations

import pytest

from repro.analysis.comparison import Table1Row, table1
from repro.analysis.makespan import makespan_report
from repro.analysis.reporting import (
    format_iteration_table,
    format_table1,
    format_utilization_table,
    iteration_series,
)
from repro.analysis.utilization import utilization_report
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.exceptions import CampaignError, SimulationError
from repro.hpc.profiling import ExecutionProfiler
from repro.hpc.resources import amarel_platform


@pytest.fixture(scope="module")
def campaign_pair(four_targets):
    control = DesignCampaign(
        four_targets, CampaignConfig(protocol="cont-v", n_cycles=2, n_sequences=5, seed=19)
    )
    adaptive = DesignCampaign(
        four_targets, CampaignConfig(protocol="im-rp", n_cycles=2, n_sequences=5, seed=19)
    )
    return control, adaptive, control.run(), adaptive.run()


class TestUtilizationReport:
    def test_empty_profiler_raises(self):
        with pytest.raises(SimulationError):
            utilization_report(ExecutionProfiler(amarel_platform(1)))

    def test_report_fields_consistent(self, campaign_pair):
        _, adaptive_campaign, _, adaptive_result = campaign_pair
        report = utilization_report(adaptive_campaign.platform.profiler, approach="IM-RP")
        assert report.cpu_percent == pytest.approx(100 * adaptive_result.cpu_utilization)
        assert report.gpu_percent == pytest.approx(100 * adaptive_result.gpu_utilization)
        assert len(report.timeline_hours) == len(report.cpu_timeline) == 60
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in report.cpu_timeline)
        assert report.makespan_hours > 0

    def test_adaptive_uses_more_of_the_machine(self, campaign_pair):
        control_campaign, adaptive_campaign, _, _ = campaign_pair
        control_report = utilization_report(control_campaign.platform.profiler, "CONT-V")
        adaptive_report = utilization_report(adaptive_campaign.platform.profiler, "IM-RP")
        assert adaptive_report.cpu_utilization > control_report.cpu_utilization
        assert adaptive_report.gpu_utilization > control_report.gpu_utilization

    def test_per_gpu_busy_hours_only_for_used_gpus(self, campaign_pair):
        _, adaptive_campaign, _, _ = campaign_pair
        report = utilization_report(adaptive_campaign.platform.profiler, "IM-RP")
        assert report.per_gpu_busy_hours
        assert all(hours > 0 for hours in report.per_gpu_busy_hours.values())


class TestMakespanReport:
    def test_phase_breakdown_for_pilot_run(self, campaign_pair):
        _, adaptive_campaign, _, _ = campaign_pair
        report = makespan_report(adaptive_campaign.platform.profiler, "IM-RP")
        assert report.phase_hours["bootstrap"] > 0
        assert report.phase_hours["exec_setup"] > 0
        assert report.phase_hours["running"] > 0
        assert report.total_task_hours >= report.makespan_hours
        assert report.n_tasks > 0
        assert report.mean_task_hours == pytest.approx(
            report.total_task_hours / report.n_tasks
        )

    def test_control_has_no_middleware_overheads(self, campaign_pair):
        control_campaign, _, _, _ = campaign_pair
        report = makespan_report(control_campaign.platform.profiler, "CONT-V")
        assert report.phase_hours["bootstrap"] == 0.0
        assert report.phase_hours["exec_setup"] == 0.0

    def test_control_makespan_equals_total_task_time(self, campaign_pair):
        control_campaign, _, _, _ = campaign_pair
        report = makespan_report(control_campaign.platform.profiler, "CONT-V")
        # Sequential execution: wall-clock equals the sum of task durations.
        assert report.makespan_hours == pytest.approx(report.total_task_hours, rel=1e-6)

    def test_empty_profiler_raises(self):
        with pytest.raises(SimulationError):
            makespan_report(ExecutionProfiler(amarel_platform(1)))


class TestTable1:
    def test_rows_and_claims(self, campaign_pair):
        _, _, control_result, adaptive_result = campaign_pair
        comparison = table1(control_result, adaptive_result)
        rows = comparison["rows"]
        assert isinstance(rows[0], Table1Row)
        assert rows[0].approach == "CONT-V" and rows[0].n_subpipelines is None
        assert rows[1].approach == "IM-RP" and rows[1].n_subpipelines is not None
        assert all(comparison["claims"].values())

    def test_same_approach_rejected(self, campaign_pair):
        _, _, control_result, _ = campaign_pair
        with pytest.raises(CampaignError):
            table1(control_result, control_result)

    def test_row_as_dict(self, campaign_pair):
        _, _, control_result, adaptive_result = campaign_pair
        row = table1(control_result, adaptive_result)["rows"][0].as_dict()
        assert {"approach", "trajectories", "cpu_percent"} <= set(row)


class TestReporting:
    def test_iteration_series_shapes(self, campaign_pair):
        _, _, _, adaptive_result = campaign_pair
        series = iteration_series(adaptive_result)
        for metric in ("plddt", "ptm", "interchain_pae"):
            data = series[metric]
            assert len(data["iterations"]) == len(data["median"]) == len(data["half_std"])
            assert data["iterations"][0] == 0.0

    def test_format_iteration_table_contains_all_iterations(self, campaign_pair):
        _, _, _, adaptive_result = campaign_pair
        text = format_iteration_table(adaptive_result, title="IM-RP")
        assert "IM-RP" in text
        assert text.count("\n") >= len(adaptive_result.iteration_summary()) + 1

    def test_format_table1_renders_both_rows(self, campaign_pair):
        _, _, control_result, adaptive_result = campaign_pair
        text = format_table1(table1(control_result, adaptive_result)["rows"])
        assert "CONT-V" in text and "IM-RP" in text
        assert "N/A" in text  # control has no sub-pipelines

    def test_format_utilization_table(self, campaign_pair):
        control_campaign, adaptive_campaign, _, _ = campaign_pair
        reports = [
            utilization_report(control_campaign.platform.profiler, "CONT-V"),
            utilization_report(adaptive_campaign.platform.profiler, "IM-RP"),
        ]
        text = format_utilization_table(reports)
        assert "CONT-V" in text and "IM-RP" in text
        assert "CPU" in text and "GPU" in text


class TestQueueProgressReport:
    """Cycle-aware queue progress: humanized durations, ETA credit, failed."""

    @staticmethod
    def _progress(**overrides):
        from repro.analysis.progress import QueueProgress

        defaults = dict(
            n_runs=8, n_done=4, n_running=2, n_stale=0, n_unclaimed=2,
            done_wall_seconds=9251.0,
            completion_span=(1000.0, 1000.0 + 3 * 60.0),  # 1 run/min
        )
        defaults.update(overrides)
        return QueueProgress(**defaults)

    def test_durations_are_humanized(self):
        from repro.analysis.progress import format_queue_progress

        text = format_queue_progress(self._progress())
        assert "executed wall time:     2h 34m 11s" in text
        assert "9251" not in text
        # ETA: 4 runs remaining at 1 run/min.
        assert "est. time to drain:     4m 0s" in text

    def test_eta_credits_checkpointed_cycles(self):
        from repro.analysis.progress import RunInFlight, format_queue_progress

        running = [
            RunInFlight("cont-v-s0", "w0", 2.0, cycle=9, cycles_total=12),
            RunInFlight("im-rp-s0", "w1", 1.0),  # no checkpoint: no credit
        ]
        progress = self._progress(running=running)
        assert progress.cycles_in_flight_credit == pytest.approx(0.75)
        # 8 - 4 done - 0.75 credit = 3.25 runs at 1 run/min.
        assert progress.eta_seconds == pytest.approx(195.0)
        text = format_queue_progress(progress)
        assert "cycle 9/12" in text
        assert "im-rp-s0" in text

    def test_failed_runs_shown_and_excluded_from_eta(self):
        from repro.analysis.progress import format_queue_progress

        progress = self._progress(n_failed=2, n_unclaimed=0)
        assert progress.eta_seconds == pytest.approx(120.0)
        assert "failed (budget spent):  2" in format_queue_progress(progress)

    def test_no_failed_line_when_zero(self):
        from repro.analysis.progress import format_queue_progress

        assert "failed" not in format_queue_progress(self._progress())
