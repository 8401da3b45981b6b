"""The scaling-study harness: repeated fleets, byte-compared and reduced."""

from __future__ import annotations

import time

import pytest

from repro import telemetry
from repro.exceptions import OrchestrationError
from repro.experiments import SweepSpec, TargetSpec
from repro.experiments.suite import execute_run
from repro.orchestrate.scaling import run_scaling_study
from repro.telemetry import read_metrics

SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3,),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture(autouse=True)
def _untraced(monkeypatch):
    monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


class TestRunScalingStudy:
    def test_measures_each_fleet_size(self, tmp_path):
        study, runs = run_scaling_study(tmp_path, SWEEP, [1, 2])
        assert [point.n_workers for point in study.points] == [1, 2]
        assert all(point.wall_seconds > 0.0 for point in study.points)
        assert all(point.n_run_spans == 2 for point in study.points)
        for run in runs:
            assert run.finalized_path.is_file()
            assert run.telemetry_dir.is_dir()
        # Every size finalized the same science bytes (enforced in the
        # harness; re-checked here from the artifacts).
        payloads = {run.finalized_path.read_bytes() for run in runs}
        assert len(payloads) == 1
        # The metric stream of each size carries the science axis.
        series = read_metrics(runs[1].telemetry_dir)
        assert series["campaign.cycles"].count >= 2
        assert "worker.rss_bytes" in series

    def test_bad_fleet_size_lists_are_rejected(self, tmp_path):
        with pytest.raises(OrchestrationError):
            run_scaling_study(tmp_path, SWEEP, [])
        with pytest.raises(OrchestrationError):
            run_scaling_study(tmp_path, SWEEP, [0, 1])
        with pytest.raises(OrchestrationError):
            run_scaling_study(tmp_path, SWEEP, [2, 2])

    def test_injectable_execute_measures_harness_scaling(self, tmp_path):
        """A sleep-based executor (GIL released) runs once per run at each
        fleet size, and each size's wall clock covers the sleeps of its
        busiest worker.  The 2-worker speedup is printed, not asserted: it is
        a timing ratio, and on a loaded host two threads need not beat one."""
        sleep_seconds = 0.05
        executed = []  # one list of run ids per fleet size

        def sleepy(spec, resume_state=None, on_cycle=None):
            result, seconds = execute_run(
                spec, resume_state=resume_state, on_cycle=on_cycle
            )
            executed[-1].append(spec.run_id)
            time.sleep(sleep_seconds)
            return result, seconds

        study, _ = run_scaling_study(
            tmp_path,
            SWEEP,
            [1, 2],
            execute=sleepy,
            # The harness logs one line just before each fleet size drains.
            log=lambda line: executed.append([]),
        )
        run_ids = sorted(spec.run_id for spec in SWEEP.expand())
        assert len(run_ids) == 2
        assert [sorted(batch) for batch in executed] == [run_ids, run_ids]
        # One worker sleeps through both runs; of two workers, the busier
        # one sleeps through at least one.
        assert study.point(1).wall_seconds >= 2 * sleep_seconds
        assert study.point(2).wall_seconds >= sleep_seconds
        print(f"harness speedup at 2 workers: {study.speedup(study.point(2)):.2f}x")
