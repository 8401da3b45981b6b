"""The utilization-adaptive in-flight cap (``max_in_flight_pipelines="auto"``).

The controller closes the observe→decide loop: it reads only simulated
state (clock + profiler), so the same spec makes the same decisions on any
host — auto-capped runs stay deterministic and fingerprint-stable like any
static knob value.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.coordinator import (
    AUTO_IN_FLIGHT,
    AdaptiveInFlightController,
    PipelinesCoordinator,
)
from repro.core.pipeline import PipelineConfig, PipelineStatus
from repro.exceptions import CampaignError, CoordinatorError
from repro.experiments.cli import build_parser, sweep_from_args
from repro.hpc.profiling import ResourceInterval
from repro.telemetry import read_metrics


def _occupy_every_device(platform, start, end):
    """Record one interval holding every core and GPU over ``[start, end)``."""
    for node in platform.spec.nodes:
        platform.profiler.record_resource_interval(
            ResourceInterval(
                task_id="load",
                node=node.name,
                cpu_core_ids=tuple(range(node.cpu_cores)),
                gpu_ids=tuple(range(node.gpus)),
                start=start,
                end=end,
            )
        )


def _decisions(directory):
    """The ``decision`` attribute of every cap gauge under ``directory``."""
    series = read_metrics(directory)["coordinator.max_in_flight"]
    return [sample.attrs["decision"] for sample in series.samples]


@pytest.fixture(autouse=True)
def _untraced(monkeypatch):
    monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


class TestValidation:
    def test_campaign_config_accepts_auto(self):
        config = CampaignConfig(max_in_flight_pipelines=AUTO_IN_FLIGHT)
        assert config.max_in_flight_pipelines == "auto"

    @pytest.mark.parametrize("bad", ["automatic", "", "0", -1, 0])
    def test_campaign_config_rejects_other_values(self, bad):
        with pytest.raises(CampaignError):
            CampaignConfig(max_in_flight_pipelines=bad)

    def test_coordinator_rejects_unknown_strings(self, task_manager, models):
        with pytest.raises(CoordinatorError):
            PipelinesCoordinator(
                task_manager,
                models,
                PipelineConfig(),
                max_in_flight_pipelines="bogus",
            )

    def test_cli_parses_auto_alongside_ints(self):
        args = build_parser().parse_args(
            ["--protocols", "im-rp", "--max-in-flight", "1", "auto", "2"]
        )
        assert args.max_in_flight == [1, "auto", 2]
        sweep = sweep_from_args(args)
        assert {"max_in_flight_pipelines": "auto"} in sweep.knobs

    def test_cli_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--max-in-flight", "several"])
        assert "'auto'" in capsys.readouterr().err


class TestController:
    def test_starts_at_one_and_raises_while_unsaturated(
        self, tmp_path, task_manager, models, four_targets
    ):
        coordinator = PipelinesCoordinator(
            task_manager,
            models,
            PipelineConfig(n_cycles=2, n_sequences=5),
            max_in_flight_pipelines=AUTO_IN_FLIGHT,
        )
        controller = coordinator._adaptive
        assert controller is not None and controller.cap == 1
        coordinator.add_targets(four_targets)
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            while not coordinator.step_cycle():
                pass
        records = coordinator.records()
        roots = [record for record in records if record.parent_uid is None]
        assert len(roots) == 4
        assert all(record.status is PipelineStatus.COMPLETED for record in roots)
        # The controller decided at every cycle boundary and raised at least
        # once (four pipelines behind a cap of 1 cannot saturate the node).
        decisions = _decisions(tmp_path / "telemetry")
        assert len(decisions) == coordinator.n_cycles_completed
        assert controller.cap > 1
        assert set(decisions) <= {"raise", "hold"} and "raise" in decisions

    def test_decisions_read_only_simulated_state(self, models, four_targets):
        """Two fresh executions of the same spec make identical decisions."""

        def run_once():
            config = CampaignConfig(
                protocol="im-rp",
                n_cycles=2,
                n_sequences=5,
                seed=9,
                max_in_flight_pipelines=AUTO_IN_FLIGHT,
            )
            campaign = DesignCampaign(four_targets, config)
            return campaign.run()

        first, second = run_once(), run_once()
        assert first.as_dict() == second.as_dict()

    def test_auto_runs_diverge_from_uncapped_only_in_schedule(self, four_targets):
        """The auto cap changes execution order, not science validity: both
        configurations complete the same number of root pipelines."""
        auto = DesignCampaign(
            four_targets,
            CampaignConfig(
                protocol="im-rp", n_cycles=2, n_sequences=4, seed=5,
                max_in_flight_pipelines=AUTO_IN_FLIGHT,
            ),
        ).run()
        uncapped = DesignCampaign(
            four_targets,
            CampaignConfig(
                protocol="im-rp", n_cycles=2, n_sequences=4, seed=5,
            ),
        ).run()
        assert auto.targets == uncapped.targets
        assert auto.n_cycles == uncapped.n_cycles

    def test_hold_when_saturated(self, tmp_path, platform):
        _occupy_every_device(platform, 0.0, 600.0)
        platform.loop.run_until(600.0)
        controller = AdaptiveInFlightController(platform)
        assert controller.busy_fraction() == 1.0
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            assert controller.retune(pending_roots=3) is False
        assert controller.cap == 1
        assert _decisions(tmp_path / "telemetry") == ["hold"]

    @pytest.mark.parametrize(
        "busy_from, now, raised",
        [
            (60.0, 600.0, False),  # 90% busy: at the target, hold
            (61.0, 600.0, True),  # just under 90%
            (500.0, 1100.0, False),  # busy through the trailing 600 s
            (0.0, 1100.0, True),  # idle for the last 500 of them
        ],
    )
    def test_raises_below_90_percent_of_the_trailing_600_seconds(
        self, platform, busy_from, now, raised
    ):
        _occupy_every_device(platform, busy_from, min(now, busy_from + 600.0))
        platform.loop.run_until(now)
        controller = AdaptiveInFlightController(platform)
        assert controller.retune(pending_roots=1) is raised
        assert controller.cap == (2 if raised else 1)

    def test_hold_when_nothing_pending(self, platform):
        controller = AdaptiveInFlightController(platform)
        assert controller.retune(pending_roots=0) is False
        assert controller.cap == 1


class TestDecisionTrail:
    def test_gauges_land_in_the_metric_stream(self, tmp_path, four_targets):
        config = CampaignConfig(
            protocol="im-rp",
            n_cycles=2,
            n_sequences=4,
            seed=7,
            max_in_flight_pipelines=AUTO_IN_FLIGHT,
        )
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            DesignCampaign(four_targets, config).run()
        series = read_metrics(tmp_path / "telemetry")["coordinator.max_in_flight"]
        assert series.metric == "gauge"
        assert series.count >= 4
        # Every decision sample carries its evidence.
        for sample in series.samples:
            assert sample.attrs["decision"] in ("raise", "hold")
            assert 0.0 <= sample.attrs["busy_fraction"] <= 1.0
            assert sample.attrs["pending_roots"] >= 0
        # The cap trail is monotone non-decreasing from 1.
        values = [sample.value for sample in series.samples]
        assert values[0] in (1.0, 2.0)
        assert values == sorted(values)
