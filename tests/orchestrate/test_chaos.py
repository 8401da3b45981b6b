"""The chaos soak: byte-identity under seeded fault storms + worker kills.

These are the slowest tests in the suite (each soaks a real multi-worker
sweep through subprocess workers), so the sweep is small and the fault
schedules lean on *forced* faults — every soak is guaranteed at least one
injected worker crash on the store-append path plus rate-driven I/O faults,
and the adversary delivers one SIGKILL of its own.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import fleet_timeline
from repro.exceptions import OrchestrationError
from repro.experiments import SweepSpec, TargetSpec
from repro.faults import FaultPlan, ForcedFault, injected_plan
from repro.orchestrate import ChaosReport, run_chaos

CHAOS_SWEEP = SweepSpec(
    protocols=("cont-v",),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 3, "n_sequences": 4},
)

#: Rate-driven I/O faults for the storm; modest, so the storm also finishes
#: work (the forced faults below guarantee the interesting crossings).
MIXED_RATES = {"io_error": 0.05, "torn_write": 0.03, "slow_io": 0.05}

#: Guaranteed faults per storm process: the first store append crashes the
#: worker (SIGKILL, heartbeat dies, claim goes stale) and the second
#: checkpoint save tears.
FORCED = [
    ForcedFault("store.append", 1, "crash_after_write"),
    ForcedFault("checkpoint.save", 2, "torn_write"),
]


class TestChaosSoak:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_soak_is_byte_identical_under_mixed_faults_and_kills(
        self, tmp_path, seed
    ):
        """Three distinct adversary seeds, each mixing I/O faults with
        worker deaths (one injected crash per process + one adversary
        SIGKILL), must all finalize byte-identical to the serial run —
        with telemetry on, pinning the tracing-is-out-of-band contract."""
        report = run_chaos(
            tmp_path / "soak", CHAOS_SWEEP, seed=seed, workers=2, kills=1,
            rates=MIXED_RATES, force=FORCED, lease_seconds=1.0, trace=True,
        )
        assert report.kills_delivered == 1
        assert report.injected_by_kind.get("crash_after_write", 0) >= 1
        assert report.injected_by_site.get("store.append", 0) >= 1
        # The traced soak leaves a reconstructible fleet timeline: the
        # adversary logged its kill, and fired faults rode the streams.
        fleet = fleet_timeline(tmp_path / "soak" / "telemetry")
        adversary = {w.worker: w for w in fleet.workers}.get("chaos-adversary")
        assert adversary is not None
        assert adversary.count_events("chaos.kill") == 1
        assert sum(w.count_events("fault") for w in fleet.workers) >= 1
        assert fleet.n_run_spans >= 1
        # At least one worker died by SIGKILL (the forced append crash or
        # the adversary); others may have exited cleanly when the storm
        # drained.
        assert report.worker_exits
        assert any(code == -9 for code in report.worker_exits.values())
        assert report.finalized_path.exists()
        assert report.reference_path.exists()

    def test_report_accounts_for_the_storm_residue(self, tmp_path):
        report = run_chaos(
            tmp_path / "soak", CHAOS_SWEEP, seed=7, workers=2, kills=1,
            rates=MIXED_RATES, force=FORCED, lease_seconds=1.0,
        )
        run_ids = {entry.run_id for entry in _expected_runs()}
        assert set(report.drained) <= run_ids
        assert set(report.failed_in_storm) <= run_ids
        assert set(report.failed_in_storm.values()) <= {
            "error", "poison", "timeout", "unknown"
        }
        assert report.n_runs == len(run_ids)
        assert report.workers_spawned >= report.workers

    def test_guards_reject_unsurvivable_configurations(self, tmp_path):
        with pytest.raises(OrchestrationError, match="max_attempts"):
            run_chaos(
                tmp_path / "soak", CHAOS_SWEEP, seed=0, max_attempts=1
            )
        with pytest.raises(OrchestrationError, match="fault plan is active"):
            with injected_plan(FaultPlan(0)):
                run_chaos(tmp_path / "soak2", CHAOS_SWEEP, seed=0)
        with pytest.raises(OrchestrationError, match="at least one worker"):
            run_chaos(tmp_path / "soak3", CHAOS_SWEEP, seed=0, workers=0)
        with pytest.raises(OrchestrationError, match="kills must be >= 0"):
            run_chaos(tmp_path / "soak3", CHAOS_SWEEP, seed=0, kills=-1)
        assert not (tmp_path / "soak3").exists()


class TestChaosReport:
    def _report(self, **fields):
        base = dict(seed=4, n_runs=6, workers=2, kills_delivered=1, workers_spawned=3)
        return ChaosReport(**{**base, **fields})

    def test_summary_counts_faults_by_kind(self):
        report = self._report(
            injected_by_kind={"torn_write": 2, "io_error": 5},
            failed_in_storm={"cont-v-s3": "error"},
            drained=["cont-v-s3", "cont-v-s5"],
            wall_seconds=12.34,
        )
        assert report.summary() == (
            "chaos seed 4: 6 runs, 3 worker(s) spawned (1 adversary kill(s)), "
            "faults fired: io_error×5, torn_write×2; 1 failed marker(s) cleared, "
            "2 run(s) finished by the clean drain; finalized store byte-identical "
            "to the serial reference in 12.3s"
        )

    def test_summary_without_faults_says_none(self):
        summary = self._report().summary()
        assert "faults fired: none;" in summary


class TestChaosCli:
    def test_cli_soak_smoke(self, tmp_path):
        """``python -m repro.orchestrate chaos`` end to end: flag parsing,
        forced-fault syntax, summary line, exit 0 on byte-identity."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.orchestrate", "chaos",
                "--queue", str(tmp_path / "queue"),
                "--protocols", "cont-v", "--seeds", "3",
                "--cycles", "2", "--sequences", "4",
                "--chaos-seed", "5", "--workers", "1", "--kills", "0",
                "--rate", "io_error=0.05",
                "--force", "store.append:1:io_error",
                "--lease", "1",
            ],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "byte-identical" in proc.stdout
        assert "io_error" in proc.stdout


def _expected_runs():
    return CHAOS_SWEEP.expand()
