"""The metrics facade: counters, gauges, histograms over the span stream.

Same contract as spans/events, pinned the same way: disabled emission is a
global-read no-op, enabled emission is out-of-band (no failpoint crossings,
no science perturbation — a metrics-enabled sweep finalizes byte-identical
to the serial reference), and the read side reconstructs per-name series
with filters that never mask an unreadable stream.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults, telemetry
from repro.core import instrumentation
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.exceptions import TelemetryError
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.experiments.suite import execute_run
from repro.faults import FaultPlan
from repro.orchestrate import WorkQueue, finalize_queue, run_worker
from repro.store import RunStore, prune_store
from repro.telemetry import (
    METRIC_KINDS,
    TELEMETRY_SCHEMA_VERSION,
    MetricSeries,
    ResourceSampler,
    metrics_from_records,
    read_metrics,
    start_resource_sampler,
)
from repro.telemetry import metrics


@pytest.fixture(autouse=True)
def _clean_switch(monkeypatch):
    """Each test starts untraced and leaves no writer behind."""
    monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


def _records(directory, **kwargs):
    return telemetry.read_telemetry_dir(directory, **kwargs)


class TestDisabled:
    def test_all_three_verbs_are_no_ops(self, tmp_path):
        metrics.counter("campaign.cycles")
        metrics.gauge("worker.rss_bytes", 123.0)
        metrics.histogram("campaign.cycle_seconds", 0.5)
        assert not telemetry.enabled()
        assert _records(tmp_path) == []

    def test_sampler_factory_returns_none_when_untraced(self):
        assert start_resource_sampler("w0") is None

    @pytest.mark.parametrize("protocol", ["im-rp", "cont-v"])
    def test_campaign_science_metrics_compute_nothing(
        self, monkeypatch, four_targets, protocol
    ):
        """Untraced, the cycle and stage metrics return before computing a
        value: no composite score, no metric verb."""
        calls = []

        def record(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(instrumentation, "composite_score", record("composite_score"))
        for verb in METRIC_KINDS:
            monkeypatch.setattr(metrics, verb, record(verb))
        config = CampaignConfig(protocol=protocol, n_cycles=2, n_sequences=4, seed=17)
        result = DesignCampaign(four_targets[:2], config).run()
        assert result.n_trajectories > 0
        assert calls == []


class TestRecordSchema:
    def test_metric_record_carries_the_full_schema(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "w0") as writer:
            metrics.counter("campaign.cycles", 2, target="NHERF3")
            [line] = writer.path.read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert record["v"] == TELEMETRY_SCHEMA_VERSION
        assert record["kind"] == "metric"
        assert record["name"] == "campaign.cycles"
        assert record["metric"] == "counter"
        assert record["value"] == 2.0 and isinstance(record["value"], float)
        assert record["pid"] == os.getpid()
        assert record["worker"] == "w0"
        assert record["attrs"] == {"target": "NHERF3"}
        assert isinstance(record["at"], float)

    def test_each_verb_stamps_its_metric_kind(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            metrics.counter("a")
            metrics.gauge("b", 1.0)
            metrics.histogram("c", 2.0)
        kinds = {r["name"]: r["metric"] for r in _records(tmp_path / "telemetry")}
        assert kinds == {"a": "counter", "b": "gauge", "c": "histogram"}
        assert set(kinds.values()) <= set(METRIC_KINDS)

    def test_worker_resolution_matches_events(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "default"):
            metrics.counter("a")
            with telemetry.worker_scope("scoped"):
                metrics.counter("b")
                metrics.counter("c", worker="explicit")
        by_name = {r["name"]: r["worker"] for r in _records(tmp_path / "telemetry")}
        assert by_name == {"a": "default", "b": "scoped", "c": "explicit"}

    def test_unwritable_stream_never_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        with telemetry.scoped(blocker / "telemetry", "w0"):
            metrics.gauge("swallowed", 1.0)


class TestReaderFilters:
    @pytest.fixture()
    def mixed(self, tmp_path):
        directory = tmp_path / "telemetry"
        with telemetry.scoped(directory, "w0"):
            telemetry.event("worker.start")
            with telemetry.span("worker.run", run="r1"):
                metrics.counter("campaign.cycles")
                metrics.gauge("worker.rss_bytes", 100.0)
        return directory

    def test_kinds_filter_selects_record_kinds(self, mixed):
        kinds = {r["kind"] for r in _records(mixed, kinds=("metric",))}
        assert kinds == {"metric"}
        names = {r["name"] for r in _records(mixed, kinds=("span", "event"))}
        assert names == {"worker.start", "worker.run"}

    def test_names_filter_selects_record_names(self, mixed):
        [record] = _records(mixed, names=("campaign.cycles",))
        assert record["kind"] == "metric"
        assert _records(mixed, names=("absent",)) == []

    def test_filters_compose(self, mixed):
        assert _records(mixed, kinds=("span",), names=("campaign.cycles",)) == []

    def test_filters_do_not_mask_an_unreadable_stream(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        newer = {"v": TELEMETRY_SCHEMA_VERSION + 1, "kind": "event", "name": "x"}
        path.write_text(json.dumps(newer) + "\n", encoding="utf-8")
        with pytest.raises(TelemetryError):
            list(telemetry.iter_telemetry_file(path, kinds=("metric",)))


class TestAggregation:
    def test_series_reduce_their_samples(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            for value in (1.0, 3.0, 2.0, 10.0):
                metrics.histogram("campaign.cycle_seconds", value)
        series = read_metrics(tmp_path / "telemetry")["campaign.cycle_seconds"]
        assert series.metric == "histogram"
        assert series.count == 4
        assert series.total == pytest.approx(16.0)
        assert series.mean == pytest.approx(4.0)
        assert series.last == 10.0

    def test_names_filter_reads_only_the_requested_series(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            metrics.counter("kept")
            metrics.counter("dropped")
        series = read_metrics(tmp_path / "telemetry", names=("kept",))
        assert list(series) == ["kept"]

    def test_non_metric_records_are_ignored(self):
        records = [
            {"kind": "event", "name": "worker.start", "at": 1.0},
            {
                "kind": "metric", "name": "x", "metric": "gauge",
                "value": 2.0, "at": 2.0, "worker": "w0", "attrs": {},
            },
        ]
        series = metrics_from_records(records)
        assert list(series) == ["x"]
        assert isinstance(series["x"], MetricSeries)


class TestResourceSampler:
    def test_sample_once_emits_labelled_gauges(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "default"):
            sampler = ResourceSampler("w7")
            sampler.sample_once()
        series = read_metrics(tmp_path / "telemetry")
        rss = series["worker.rss_bytes"]
        cpu = series["worker.cpu_seconds"]
        assert rss.metric == "gauge" and cpu.metric == "gauge"
        assert rss.last > 0.0
        assert cpu.last >= 0.0
        # Daemon threads do not inherit worker_scope: the label is explicit.
        assert {s.worker for s in rss.samples} == {"w7"}

    def test_start_stop_lifecycle_emits_samples(self, tmp_path):
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            sampler = start_resource_sampler("w0")
            assert sampler is not None
            sampler.stop()
        series = read_metrics(tmp_path / "telemetry")
        # At least the immediate sample and the final stop() sample.
        assert series["worker.rss_bytes"].count >= 2


class TestOutOfBand:
    def test_metric_emission_crosses_no_failpoints(self, tmp_path):
        plan = FaultPlan(0)
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            with faults.injected_plan(plan):
                metrics.counter("campaign.cycles")
                metrics.gauge("worker.rss_bytes", 1.0)
                metrics.histogram("campaign.cycle_seconds", 0.1)
        assert plan.invocations == {}
        assert len(_records(tmp_path / "telemetry")) == 3

    def test_instrumented_campaign_science_is_unperturbed(
        self, tmp_path, four_targets
    ):
        """Metrics-on and metrics-off runs of both protocols produce
        identical science — the emission draws no science RNG."""
        config = CampaignConfig(
            protocol="im-rp", n_cycles=2, n_sequences=4, seed=17
        )
        baseline = DesignCampaign(four_targets[:2], config).run()
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            traced = DesignCampaign(four_targets[:2], config).run()
        assert traced.as_dict() == baseline.as_dict()
        names = {r["name"] for r in _records(tmp_path / "telemetry")}
        assert "campaign.cycles" in names
        assert "campaign.best_composite" in names


class TestMetricsEnabledSweepAcceptance:
    """The PR acceptance criterion, pinned.

    With metrics flowing (campaign instrumentation, resource samplers,
    checkpoint gauges — everything `worker --telemetry` turns on), the
    2-worker finalized ``strip_timing`` store is byte-identical to the
    serial reference.
    """

    SWEEP = SweepSpec(
        protocols=("im-rp", "cont-v"),
        seeds=(3,),
        targets=TargetSpec(kind="named-pdz", seed=11),
        base={"n_cycles": 1, "n_sequences": 4},
    )

    def test_metrics_enabled_two_worker_sweep(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "queue", self.SWEEP)
        with telemetry.scoped(queue.path / "telemetry", "harness"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(
                        run_worker,
                        queue,
                        worker_id=f"w{i}",
                        execute=execute_run,
                        lease_seconds=60.0,
                    )
                    for i in range(2)
                ]
                for future in futures:
                    future.result()
            finalized = finalize_queue(
                queue, tmp_path / "finalized.jsonl", strip_timing=True
            )

        serial = RunStore(tmp_path / "serial.jsonl")
        CampaignSuite(self.SWEEP, executor="serial").run(store=serial)
        reference = prune_store(
            serial.path, tmp_path / "serial-canonical.jsonl", strip_timing=True
        )
        assert finalized.path.read_bytes() == reference.path.read_bytes()

        series = read_metrics(queue.path / "telemetry")
        # One cycle per target per run at minimum (subpipelines add more).
        assert series["campaign.cycles"].count >= 8
        # Science metrics, resource gauges and checkpoint sizes all landed.
        assert "campaign.best_composite" in series
        assert "worker.rss_bytes" in series
        assert "checkpoint.bytes" in series
