"""Fleet-timeline reconstruction from telemetry streams.

The arithmetic half works on synthetic streams with hand-checkable numbers;
the integration half pins the PR's acceptance contract: a traced 2-worker
sweep finalizes byte-identical to the serial reference *and* reconstructs a
timeline with exactly one ``worker.run`` span per manifest run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.analysis import fleet_timeline, format_fleet_timeline
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.experiments.suite import execute_run
from repro.orchestrate import WorkQueue, finalize_queue, run_worker
from repro.store import RunStore, prune_store
from repro.telemetry import TelemetryWriter

SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture(autouse=True)
def _untraced(monkeypatch):
    monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture()
def synthetic(tmp_path):
    """Two workers, three runs, hand-checkable numbers.

    w0: runs [0, 10] and [12, 20], a checkpoint span, a steal event.
    w1: run [0, 30] (straggler and critical path), a retry event.
    Fleet: makespan 30, busy 18 + 30 = 48, utilization 48 / 60 = 0.8.
    """
    directory = tmp_path / "telemetry"
    w0 = TelemetryWriter(directory / "w0.jsonl", "w0")
    w0.write_span("worker.run", 100.0, 110.0, True, {"run": "r-a"})
    w0.write_span("worker.run", 112.0, 120.0, True, {"run": "r-b"})
    w0.write_span("worker.checkpoint", 104.0, 105.0, True, {"run": "r-a"})
    w0.write_event("lease.steal", {"victim": "w1"}, at=111.0)
    w1 = TelemetryWriter(directory / "w1.jsonl", "w1")
    w1.write_span("worker.run", 100.0, 130.0, True, {"run": "r-c"})
    w1.write_event("retry", {"site": "store.append"}, at=115.0)
    return directory


class TestFleetArithmetic:
    def test_worker_timelines_reduce_the_streams(self, synthetic):
        fleet = fleet_timeline(synthetic)
        assert [w.worker for w in fleet.workers] == ["w0", "w1"]
        workers = {w.worker: w for w in fleet.workers}
        w0 = workers["w0"]
        assert len(w0.run_spans) == 2
        assert w0.busy_seconds == pytest.approx(18.0)
        assert w0.span_seconds("worker.checkpoint") == pytest.approx(1.0)
        assert w0.count_events("lease.steal") == 1
        w1 = workers["w1"]
        assert w1.busy_seconds == pytest.approx(30.0)
        assert w1.count_events("retry") == 1

    def test_fleet_aggregates(self, synthetic):
        fleet = fleet_timeline(synthetic)
        assert fleet.n_run_spans == 3
        assert fleet.makespan_seconds == pytest.approx(30.0)
        assert fleet.busy_seconds == pytest.approx(48.0)
        assert fleet.utilization == pytest.approx(0.8)
        # w0 goes idle at 120 while the fleet runs to 130.
        assert fleet.idle_tail_seconds == pytest.approx(10.0)
        assert fleet.straggler.worker == "w1"
        assert fleet.critical_span.attrs["run"] == "r-c"
        assert fleet.critical_span.seconds == pytest.approx(30.0)

    def test_busy_fractions_bin_the_overlap(self, synthetic):
        fleet = fleet_timeline(synthetic)
        w0, w1 = fleet.workers
        # w1 is busy over [100, 130] of a [100, 130] window: every bin full.
        assert w1.busy_fractions(fleet.start, fleet.end, 10) == [1.0] * 10
        fractions = w0.busy_fractions(fleet.start, fleet.end, 30)
        assert fractions[:10] == [1.0] * 10  # [100, 110] busy
        assert fractions[10] == pytest.approx(0.0)  # [110, 111] idle
        assert sum(fractions) == pytest.approx(18.0)

    def test_empty_directory_is_an_empty_fleet(self, tmp_path):
        fleet = fleet_timeline(tmp_path / "absent")
        assert fleet.workers == ()
        assert fleet.utilization == 0.0
        assert fleet.straggler is None and fleet.critical_span is None
        assert format_fleet_timeline(fleet).startswith("Fleet telemetry: 0")


class TestEdgeCases:
    def test_zero_duration_spans_count_without_dividing_by_zero(self, tmp_path):
        directory = tmp_path / "telemetry"
        writer = TelemetryWriter(directory / "w0.jsonl", "w0")
        writer.write_span("worker.run", 50.0, 50.0, True, {"run": "r-z"})
        fleet = fleet_timeline(directory)
        assert fleet.n_run_spans == 1
        assert fleet.busy_seconds == 0.0
        assert fleet.makespan_seconds == 0.0
        assert fleet.utilization == 0.0
        # The formatter renders without bars (no positive makespan to bin).
        text = format_fleet_timeline(fleet)
        assert text.startswith("Fleet telemetry: 1 worker(s), 1 run span(s)")
        assert "busy timeline" not in text

    def test_unlabelled_records_group_under_unknown(self, tmp_path):
        directory = tmp_path / "telemetry"
        writer = TelemetryWriter(directory / "anon.jsonl", "ignored")
        writer.write_span("worker.run", 0.0, 5.0, True, {"run": "r-u"}, worker="")
        fleet = fleet_timeline(directory)
        assert [w.worker for w in fleet.workers] == ["<unknown>"]
        assert "<unknown>" in format_fleet_timeline(fleet)

    def test_events_only_stream_reconstructs_an_idle_worker(self, tmp_path):
        directory = tmp_path / "telemetry"
        writer = TelemetryWriter(directory / "w0.jsonl", "w0")
        writer.write_event("worker.start", {"queue": "q"}, at=10.0)
        writer.write_event("worker.exit", {"executed": 0}, at=25.0)
        fleet = fleet_timeline(directory)
        [worker] = fleet.workers
        assert worker.run_spans == ()
        assert worker.start == 10.0 and worker.end == 25.0
        assert fleet.n_run_spans == 0
        assert fleet.straggler is None and fleet.critical_span is None
        # Makespan spans the events; utilization is all idle.
        assert fleet.makespan_seconds == pytest.approx(15.0)
        assert fleet.utilization == 0.0
        assert fleet.idle_tail_seconds == pytest.approx(15.0)
        format_fleet_timeline(fleet)  # renders without a postscript crash

    def test_metric_records_do_not_leak_into_timelines(self, tmp_path):
        directory = tmp_path / "telemetry"
        with telemetry.scoped(directory, "w0"):
            from repro.telemetry import metrics

            metrics.gauge("worker.rss_bytes", 1.0)
            with telemetry.span("worker.run", run="r-m"):
                pass
        fleet = fleet_timeline(directory)
        [worker] = fleet.workers
        assert len(worker.spans) == 1 and worker.events == ()


class TestFormat:
    def test_report_carries_the_grep_stable_summary(self, synthetic):
        text = format_fleet_timeline(fleet_timeline(synthetic))
        first = text.splitlines()[0]
        assert first.startswith("Fleet telemetry: 2 worker(s), 3 run span(s)")
        assert "utilization 80%" in first

    def test_report_renders_table_bars_and_postscript(self, synthetic):
        text = format_fleet_timeline(fleet_timeline(synthetic), bins=10)
        assert "worker" in text and "steals" in text
        assert "w1     |##########|" in text
        assert "idle tail:" in text
        assert "critical run: r-c" in text
        assert "straggler: w1" in text


class TestTracedSweepAcceptance:
    """The PR acceptance criterion, pinned.

    With telemetry enabled the 2-worker finalized ``strip_timing`` store is
    byte-identical to the serial reference, and the reconstructed timeline
    carries exactly one run span per manifest run.
    """

    def test_traced_two_worker_sweep(self, tmp_path):
        queue = WorkQueue.create(tmp_path / "queue", SWEEP)
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
                outcomes = [future.result() for future in futures]
            finalized = finalize_queue(
                queue, tmp_path / "finalized.jsonl", strip_timing=True
            )

        serial = RunStore(tmp_path / "serial.jsonl")
        CampaignSuite(SWEEP, executor="serial").run(store=serial)
        reference = prune_store(
            serial.path, tmp_path / "serial-canonical.jsonl", strip_timing=True
        )
        assert finalized.path.read_bytes() == reference.path.read_bytes()

        fleet = fleet_timeline(queue.path / "telemetry")
        assert fleet.n_run_spans == len(queue.entries()) == 4
        assert all(span.ok for w in fleet.workers for span in w.run_spans)
        # Each worker's run spans match what its outcome reports.
        workers = {w.worker: w for w in fleet.workers}
        for index, outcome in enumerate(outcomes):
            timeline = workers.get(f"w{index}")
            if outcome.n_executed:
                assert len(timeline.run_spans) == outcome.n_executed
        # The finalize span closed under the harness label.
        harness = workers.get("harness")
        assert harness is not None
        assert harness.span_seconds("queue.finalize") > 0.0
