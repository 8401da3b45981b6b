"""CLI coverage: ``python -m repro.orchestrate`` init / worker / status / finalize."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.orchestrate.cli import main as orchestrate_main
from repro.store import RunStore
from repro.store.cli import main as store_main

SWEEP_ARGS = [
    "--protocols", "im-rp", "cont-v",
    "--seeds", "3",
    "--cycles", "1",
    "--sequences", "4",
    "--target-seed", "11",
]


def _init(queue_dir):
    return orchestrate_main(["init", "--queue", str(queue_dir)] + SWEEP_ARGS)


class TestOrchestrateCli:
    def test_full_session(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        assert _init(queue_dir) == 0
        assert "Initialised queue" in capsys.readouterr().out

        assert (
            orchestrate_main(
                ["worker", "--queue", str(queue_dir), "--worker-id", "w0", "--no-wait"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "claimed: im-rp-s3" in out
        assert "Worker w0: executed 2 run(s)" in out

        assert orchestrate_main(["status", "--queue", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "2/2 runs done (100%)" in out
        assert "w0" in out

        output = tmp_path / "final.jsonl"
        assert (
            orchestrate_main(
                ["finalize", "--queue", str(queue_dir), "--output", str(output)]
            )
            == 0
        )
        assert "Finalized queue" in capsys.readouterr().out
        assert len(RunStore(output)) == 2
        # The canonical store feeds the protocol matrix straight from disk.
        assert store_main(["report", str(output)]) == 0
        report = capsys.readouterr().out
        assert "im-rp" in report and "cont-v" in report

    def test_worker_max_runs_and_partial_finalize(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        assert (
            orchestrate_main(
                [
                    "worker", "--queue", str(queue_dir),
                    "--worker-id", "w0", "--max-runs", "1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        output = tmp_path / "partial.jsonl"
        code = orchestrate_main(
            ["finalize", "--queue", str(queue_dir), "--output", str(output)]
        )
        assert code == 2
        assert "not drained" in capsys.readouterr().err
        assert (
            orchestrate_main(
                [
                    "finalize", "--queue", str(queue_dir),
                    "--output", str(output), "--partial",
                ]
            )
            == 0
        )
        assert len(RunStore(output)) == 1

    def test_status_of_uninitialised_queue_is_a_clean_error(self, tmp_path, capsys):
        assert orchestrate_main(["status", "--queue", str(tmp_path / "nope")]) == 2
        assert "not an initialised" in capsys.readouterr().err

    def test_init_rejects_bad_sweep_flags(self, tmp_path, capsys):
        code = orchestrate_main(
            ["init", "--queue", str(tmp_path / "q"), "--protocols", "warp-drive"]
        )
        assert code == 2
        assert "unknown protocols" in capsys.readouterr().err


class TestWorkerRetryFlags:
    def test_max_attempts_rejects_non_positive(self, tmp_path, capsys):
        import pytest

        with pytest.raises(SystemExit):
            orchestrate_main(
                ["worker", "--queue", str(tmp_path / "q"), "--max-attempts", "0"]
            )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lease", "0", "must be > 0"),
            ("--lease", "soon", "not a number"),
            ("--checkpoint-interval", "-1", "must be >= 0"),
            ("--checkpoint-interval", "often", "not a number"),
        ],
        ids=["zero-lease", "text-lease", "negative-interval", "text-interval"],
    )
    def test_timing_flags_reject_bad_values(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as excinfo:
            orchestrate_main(["worker", "--queue", str(tmp_path / "q"), flag, value])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_max_attempts_accepted(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        capsys.readouterr()
        assert (
            orchestrate_main(
                [
                    "worker", "--queue", str(queue_dir),
                    "--worker-id", "w0", "--no-wait", "--max-attempts", "3",
                ]
            )
            == 0
        )
        assert "executed 2 run(s)" in capsys.readouterr().out


class TestChaosFlags:
    @pytest.mark.parametrize(
        "rate, message",
        [("io_error", "fault rate must be KIND=RATE"), ("io_error=often", "must be a number")],
        ids=["no-separator", "text-rate"],
    )
    def test_malformed_rate_is_a_clean_error(self, tmp_path, capsys, rate, message):
        queue_dir = tmp_path / "soak"
        code = orchestrate_main(["chaos", "--queue", str(queue_dir), "--rate", rate])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not queue_dir.exists()  # rejected before any storm starts


class TestTelemetryCli:
    """worker --telemetry, the report subcommand, and status --watch."""

    @pytest.fixture(autouse=True)
    def _untraced(self, monkeypatch):
        monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
        telemetry.reset()
        yield
        telemetry.reset()

    def test_traced_session_status_and_report(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        assert (
            orchestrate_main(
                [
                    "worker", "--queue", str(queue_dir),
                    "--worker-id", "w0", "--no-wait", "--telemetry",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (queue_dir / "telemetry" / "w0.jsonl").exists()

        # status grows the fleet section once the telemetry directory exists.
        assert orchestrate_main(["status", "--queue", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "Sweep progress: 2/2" in out
        assert "Fleet telemetry:" in out

        assert (
            orchestrate_main(
                ["report", "--queue", str(queue_dir), "--bins", "10"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fleet telemetry: 1 worker(s), 2 run span(s)" in out
        assert "critical run:" in out
        assert "w0" in out

    def test_report_of_untraced_queue_is_a_clean_error(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        capsys.readouterr()
        assert orchestrate_main(["report", "--queue", str(queue_dir)]) == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_watch_exits_once_the_queue_drains(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        orchestrate_main(
            ["worker", "--queue", str(queue_dir), "--worker-id", "w0", "--no-wait"]
        )
        capsys.readouterr()
        assert (
            orchestrate_main(
                [
                    "status", "--queue", str(queue_dir),
                    "--watch", "--interval", "0.01",
                ]
            )
            == 0
        )
        assert "2/2 runs done" in capsys.readouterr().out

    def test_watch_piped_prints_plain_snapshots(self, tmp_path, capsys):
        """Redirected --watch (CI logs, `| tee`) must not emit ANSI codes."""
        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        orchestrate_main(
            ["worker", "--queue", str(queue_dir), "--worker-id", "w0", "--no-wait"]
        )
        capsys.readouterr()
        assert (
            orchestrate_main(
                [
                    "status", "--queue", str(queue_dir),
                    "--watch", "--interval", "0.01",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # capsys stdout is not a TTY, so the fallback path is in force.
        assert "\x1b[" not in out
        assert "2/2 runs done" in out

    def test_watch_on_a_tty_clears_between_frames(self, tmp_path, capsys, monkeypatch):
        import sys as _sys

        queue_dir = tmp_path / "queue"
        _init(queue_dir)
        orchestrate_main(
            ["worker", "--queue", str(queue_dir), "--worker-id", "w0", "--no-wait"]
        )
        capsys.readouterr()
        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True, raising=False)
        assert (
            orchestrate_main(
                [
                    "status", "--queue", str(queue_dir),
                    "--watch", "--interval", "0.01",
                ]
            )
            == 0
        )
        assert "\x1b[2J\x1b[H" in capsys.readouterr().out

    def test_scale_session(self, tmp_path, capsys):
        base = tmp_path / "scale"
        assert (
            orchestrate_main(
                [
                    "scale", "--queue", str(base),
                    "--protocols", "im-rp",
                    "--seeds", "3",
                    "--cycles", "1",
                    "--sequences", "4",
                    "--target-seed", "11",
                    "--workers", "1,2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Scaling study: 2 fleet size(s)" in out
        assert "byte-identical across 2 fleet size(s)" in out
        assert (base / "scaling.json").is_file()
        assert (base / "scale-w1" / "finalized.jsonl").is_file()
        assert (base / "scale-w2" / "telemetry").is_dir()

    def test_scale_rejects_bad_worker_lists(self, tmp_path, capsys):
        for bad in ("zero", "0,1", ""):
            assert (
                orchestrate_main(
                    ["scale", "--queue", str(tmp_path / "q"), "--workers", bad]
                )
                == 2
            )
            assert "--workers" in capsys.readouterr().err
