"""Store compaction: ``prune_store`` and ``python -m repro.store prune``."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import StoreError
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.store import RunStore, prune_store
from repro.store.cli import main as store_main

SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3,),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture()
def populated(tmp_path):
    store = RunStore(tmp_path / "runs.jsonl")
    CampaignSuite(SWEEP, executor="serial").run(store=store)
    return store


def _raw_lines(path):
    return [line for line in path.read_text().splitlines() if line.strip()]


class TestPruneStore:
    def test_superseded_duplicates_keep_the_newest(self, populated):
        # Re-append one run's record with a distinguishable wall time: the
        # store now has a superseded line for that fingerprint.
        stored = populated.get(populated.fingerprints()[0])
        record = stored.as_record()
        record = type(record)(
            spec=record.spec, result=record.result, wall_seconds=123.0
        )
        populated.append(record, fingerprint=stored.fingerprint)
        assert len(_raw_lines(populated.path)) == 3

        pruned = prune_store(populated.path)
        assert pruned.path == populated.path  # in place
        lines = _raw_lines(pruned.path)
        assert len(lines) == len(pruned) == 2
        assert pruned.get(stored.fingerprint).wall_seconds == 123.0  # newest won

    def test_torn_tail_is_dropped(self, populated):
        with populated.path.open("a") as handle:
            handle.write('{"schema_version": 1, "fingerprint": "beef", "trunc')
        pruned = prune_store(populated.path)
        assert len(pruned) == 2
        for line in _raw_lines(pruned.path):
            json.loads(line)  # every surviving line parses

    def test_unreadable_line_aborts_without_touching_the_store(self, populated):
        line = json.loads(_raw_lines(populated.path)[0])
        line["schema_version"] = 99
        with populated.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        before = populated.path.read_bytes()
        with pytest.raises(StoreError, match="schema_version 99"):
            prune_store(populated.path)
        assert populated.path.read_bytes() == before

    def test_output_is_fingerprint_sorted_and_idempotent(self, populated, tmp_path):
        once = prune_store(populated.path, tmp_path / "once.jsonl")
        fingerprints = [
            json.loads(line)["fingerprint"] for line in _raw_lines(once.path)
        ]
        assert fingerprints == sorted(fingerprints)
        twice = prune_store(once.path, tmp_path / "twice.jsonl")
        assert once.path.read_bytes() == twice.path.read_bytes()

    def test_strip_timing_zeroes_wall_seconds_only(self, populated, tmp_path):
        stripped = prune_store(
            populated.path, tmp_path / "stripped.jsonl", strip_timing=True
        )
        for payload in stripped.iter_payloads():
            assert payload["wall_seconds"] == 0.0
        # Science payloads are untouched.
        for fingerprint in populated.fingerprints():
            assert (
                stripped.get(fingerprint).result.as_dict()
                == populated.get(fingerprint).result.as_dict()
            )

    def test_records_survive_round_trip(self, populated, tmp_path):
        pruned = prune_store(populated.path, tmp_path / "pruned.jsonl")
        for fingerprint in populated.fingerprints():
            assert pruned.get(fingerprint).spec == populated.get(fingerprint).spec


class TestPruneCli:
    def test_prune_in_place(self, populated, capsys):
        assert store_main(["prune", str(populated.path)]) == 0
        out = capsys.readouterr().out
        assert "2 runs kept" in out and "0 superseded/torn" in out

    def test_prune_reports_dropped_lines(self, populated, capsys):
        with populated.path.open("a") as handle:
            handle.write('{"torn": tr')
        assert store_main(["prune", str(populated.path)]) == 0
        assert "1 superseded/torn line(s) dropped" in capsys.readouterr().out

    def test_prune_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert store_main(["prune", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_prune_strip_timing_to_output(self, populated, tmp_path, capsys):
        output = tmp_path / "canonical.jsonl"
        code = store_main(
            ["prune", str(populated.path), "--output", str(output),
             "--strip-timing"]
        )
        assert code == 0
        assert "timing stripped" in capsys.readouterr().out
        assert all(
            json.loads(line)["wall_seconds"] == 0.0
            for line in output.read_text().splitlines()
            if line.strip()
        )
