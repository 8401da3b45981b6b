"""CheckpointStore: the crash windows of cycle-granular suspend/resume.

Covers the durability contract: atomic write-then-replace saves, torn-tail
fallback to the previous cycle, hard rejection of unknown schema versions
and of states that do not decode, and the refusal to save a state that is
not a restore point.
"""

from __future__ import annotations

import json

import pytest

from repro.core.protocols import CampaignState
from repro.exceptions import StoreError
from repro.store.checkpoint import CHECKPOINT_SCHEMA_VERSION, CheckpointStore

FP = "f" * 64


def _state(cycle):
    return CampaignState(
        protocol="cont-v",
        seed=3,
        cycle=cycle,
        cycles_total=12,
        done=False,
        payload={"cycle": cycle},
    )


def _lines(store):
    """The run's checkpoint lines, decoded, oldest first."""
    return [json.loads(line) for line in store.path(FP).read_text().splitlines()]


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(tmp_path / "checkpoints")


class TestLadder:
    def test_save_and_latest_round_trip(self, store):
        store.save(FP, _state(1), run_id="cont-v-s3", worker="w0")
        store.save(FP, _state(2), run_id="cont-v-s3", worker="w0")
        assert store.latest_restorable(FP) == _state(2)

    def test_line_holds_provenance_and_the_state_only(self, store):
        store.save(FP, _state(1), run_id="cont-v-s3", worker="w0")
        [line] = _lines(store)
        assert set(line) == {
            "schema_version", "fingerprint", "run_id", "worker", "written_at_ms",
            "state",
        }
        assert line["schema_version"] == CHECKPOINT_SCHEMA_VERSION == 5
        assert (line["fingerprint"], line["run_id"], line["worker"]) == (
            FP, "cont-v-s3", "w0",
        )
        assert line["state"] == _state(1).as_dict()
        assert "restorable" not in line["state"]

    def test_written_at_ms_is_an_int_so_a_state_writes_one_length(
        self, store, monkeypatch
    ):
        # A float's repr varies in length with its value; integer Unix
        # milliseconds have 13 digits until the year 2286.
        lengths = []
        for now in (1760000000.5, 1760000000.123456):
            monkeypatch.setattr("repro.store.checkpoint.time.time", lambda: now)
            store.discard(FP)
            store.save(FP, _state(1), run_id="r", worker="w0")
            [line] = store.path(FP).read_text().splitlines()
            assert type(json.loads(line)["written_at_ms"]) is int
            lengths.append(len(line))
        assert lengths[0] == lengths[1]

    def test_ladder_bounded_to_newest_records(self, store):
        from repro.store.checkpoint import LADDER_DEPTH

        for cycle in (1, 2, 3, 4, 5):
            store.save(FP, _state(cycle), run_id="r", worker="w0")
        kept = [line["state"]["cycle"] for line in _lines(store)]
        assert kept == [3, 4, 5] and len(kept) == LADDER_DEPTH

    def test_missing_run_reads_empty(self, store):
        assert store.latest_restorable(FP) is None
        assert store.fingerprints() == []

    def test_discard(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        assert store.fingerprints() == [FP]
        store.discard(FP)
        store.discard(FP)  # idempotent
        assert store.fingerprints() == []


class TestCrashWindows:
    def test_truncated_tail_falls_back_to_previous_cycle(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        store.save(FP, _state(2), run_id="r", worker="w0")
        path = store.path(FP)
        # Crash mid-write on a non-atomic filesystem: the newest line tears.
        content = path.read_text()
        path.write_text(content + '{"schema_version": 1, "cycle": 3, "trunc')
        assert store.latest_restorable(FP) == _state(2)

    def test_garbled_middle_line_is_skipped(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        content = path.read_text()
        path.write_text(content + "not json at all\n")
        store.save(FP, _state(2), run_id="r", worker="w0")
        _tear_newest_line(store)
        assert store.latest_restorable(FP) == _state(1)

    def test_unknown_schema_version_rejected_with_clear_error(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text().splitlines()[0])
        record["schema_version"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest_restorable(FP)

    @pytest.mark.parametrize("version", [1, 3, 4])
    def test_line_of_an_older_build_is_refused(self, store, version):
        # This build must not half-decode a line an older build wrote:
        # version 1 wrote whole complexes and every trajectory twice,
        # version 3 each complex with a metadata copy of its target's
        # peptide and seed and its last fold's metrics, and version 4 a
        # per-task phase log and a float ``written_at``.
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text().splitlines()[0])
        record["schema_version"] = version
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match=f"schema_version {version};"):
            store.latest_restorable(FP)

    def test_schema_2_line_of_an_older_build_is_refused(self, store):
        # Version 2 carried line-level progress fields and could hold a
        # progress-only line; this build must not half-decode one.
        path = store.path(FP)
        path.parent.mkdir(parents=True)
        state = _state(1).as_dict()
        state["restorable"] = True
        line = {
            "schema_version": 2, "fingerprint": FP, "run_id": "r",
            "worker": "w0", "cycle": 1, "cycles_total": 12,
            "restorable": True, "state": state, "written_at": 0.0,
        }
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(StoreError, match="schema_version 2;"):
            store.latest_restorable(FP)

    def test_current_schema_line_with_a_malformed_state_is_refused(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text().splitlines()[0])
        record["state"] = {"protocol": "cont-v"}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="malformed campaign state") as caught:
            store.latest_restorable(FP)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "state",
        [
            CampaignState(protocol="cont-v", seed=3, cycles_total=12),
            CampaignState(protocol="im-rp", seed=3, cycle=2),
        ],
        ids=["init-state", "progress-report"],
    )
    def test_save_refuses_a_state_without_a_payload(self, store, state):
        # Neither an init state nor a pilot run's progress report can
        # restore anything, so neither may masquerade as a checkpoint.
        assert not state.restorable
        with pytest.raises(StoreError, match="no payload"):
            store.save(FP, state, run_id="r", worker="w0")
        assert store.fingerprints() == []


@pytest.fixture()
def decodes(monkeypatch):
    """The number of ``json.loads`` calls made so far."""
    calls = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


def _ladder(store):
    """A full three-line ladder: cycles 1, 2 and 3."""
    for cycle in (1, 2, 3):
        store.save(FP, _state(cycle), run_id="r", worker="w0")
    assert len(store.path(FP).read_text().splitlines()) == 3


def _tear_newest_line(store):
    """Cut the newest line in half, keeping its newline (a garbled line)."""
    path = store.path(FP)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines) + "\n")


class TestNewestFirstReads:
    """A read decodes ladder lines newest first and stops at the first usable one."""

    def test_good_newest_line_is_the_only_one_decoded(self, store, decodes):
        _ladder(store)
        decodes.clear()
        assert store.latest_restorable(FP) == _state(3)
        assert len(decodes) == 1

    def test_torn_newest_line_costs_one_more_decode(self, store, decodes):
        _ladder(store)
        _tear_newest_line(store)
        decodes.clear()
        assert store.latest_restorable(FP) == _state(2)
        assert len(decodes) == 2

    def test_wrong_schema_line_raises_when_the_walk_reaches_it(self, store):
        _ladder(store)
        path = store.path(FP)
        lines = path.read_text().splitlines()
        middle = json.loads(lines[1])
        middle["schema_version"] = 99
        lines[1] = json.dumps(middle)
        path.write_text("\n".join(lines) + "\n")
        assert store.latest_restorable(FP) == _state(3)  # the walk stops before it
        _tear_newest_line(store)
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest_restorable(FP)
