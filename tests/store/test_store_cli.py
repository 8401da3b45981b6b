"""CLI coverage: ``python -m repro.store`` and the experiments --store/--shard flags."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import StoreError
from repro.experiments.cli import main as experiments_main
from repro.store import RunStore
from repro.store.cli import main as store_main

SWEEP_ARGS = [
    "--protocols", "im-rp", "cont-v",
    "--seeds", "3",
    "--cycles", "1",
    "--sequences", "4",
    "--target-seed", "11",
    "--executor", "serial",
]


def _run_sweep(store_path, extra=()):
    return experiments_main(SWEEP_ARGS + ["--store", str(store_path)] + list(extra))


class TestExperimentsStoreFlags:
    def test_store_flag_writes_and_reports_misses(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.jsonl"
        assert _run_sweep(store_path) == 0
        out = capsys.readouterr().out
        assert "cache hits 0/2 (0%)" in out
        assert len(RunStore(store_path)) == 2

    def test_second_pass_reports_full_cache_hits(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.jsonl"
        assert _run_sweep(store_path) == 0
        capsys.readouterr()
        assert _run_sweep(store_path) == 0
        out = capsys.readouterr().out
        assert "cache hits 2/2 (100%)" in out
        assert "executed 0" in out
        assert "(* = served from the run store, not re-executed)" in out

    def test_shard_flag_restricts_the_run_list(self, tmp_path, capsys):
        store_path = tmp_path / "shard0.jsonl"
        assert _run_sweep(store_path, extra=["--shard", "0/2"]) == 0
        out = capsys.readouterr().out
        assert "Running 1 campaigns" in out
        assert "[shard 0/2]" in out
        assert len(RunStore(store_path)) == 1

    def test_bad_shard_is_a_clean_error(self, tmp_path, capsys):
        code = _run_sweep(tmp_path / "s.jsonl", extra=["--shard", "2of2"])
        assert code == 2
        assert "shard must look like I/N" in capsys.readouterr().err

    def test_empty_shard_is_a_clean_error(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        assert _run_sweep(store_path, extra=["--shard", "2/3"]) == 2
        captured = capsys.readouterr()
        assert "selects none of the sweep's 2 runs" in captured.err
        assert "Running" not in captured.out
        assert not store_path.exists()

    def test_json_export_is_schema_stamped(self, tmp_path, capsys):
        json_path = tmp_path / "suite.json"
        assert experiments_main(SWEEP_ARGS + ["--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["n_cached"] == 0


class TestStoreCli:
    def test_inspect(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.jsonl"
        _run_sweep(store_path)
        capsys.readouterr()
        assert store_main(["inspect", str(store_path), "--runs"]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "im-rp-s3" in out and "cont-v-s3" in out

    def test_report_matches_live_matrix(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.jsonl"
        _run_sweep(store_path)
        live = capsys.readouterr().out
        assert store_main(["report", str(store_path)]) == 0
        report = capsys.readouterr().out
        # The store-driven matrix rows appear verbatim in the live output.
        for line in report.strip().splitlines():
            assert line in live

    def test_merge(self, tmp_path, capsys):
        _run_sweep(tmp_path / "a.jsonl", extra=["--shard", "0/2"])
        _run_sweep(tmp_path / "b.jsonl", extra=["--shard", "1/2"])
        capsys.readouterr()
        out_path = tmp_path / "merged.jsonl"
        code = store_main(
            ["merge", str(out_path), str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        )
        assert code == 0
        assert "2 unique runs" in capsys.readouterr().out
        assert len(RunStore(out_path)) == 2

    def test_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert store_main(["inspect", str(tmp_path / "ghost.jsonl")]) == 2
        assert "no such store" in capsys.readouterr().err


class TestDirectoryStorePath:
    """A directory where a store file belongs is a clean error, not a traceback."""

    def test_run_store_rejects_a_directory(self, tmp_path):
        with pytest.raises(StoreError, match="not a regular file"):
            RunStore(tmp_path)

    @pytest.mark.parametrize("command", ["inspect", "report", "prune", "merge"])
    def test_store_commands_reject_a_directory(self, tmp_path, capsys, command):
        argv = [command, str(tmp_path)]
        if command == "merge":
            argv = [command, str(tmp_path / "merged.jsonl"), str(tmp_path)]
        assert store_main(argv) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_experiments_store_flag_rejects_a_directory(self, tmp_path, capsys):
        assert _run_sweep(tmp_path) == 2
        assert "not a regular file" in capsys.readouterr().err
