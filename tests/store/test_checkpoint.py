"""CheckpointStore: the crash windows of cycle-granular suspend/resume.

Covers the durability contract: atomic write-then-replace saves, torn-tail
fallback to the previous cycle, hard rejection of unknown schema versions,
and the restorable/progress-record split.
"""

from __future__ import annotations

import json

import pytest

from repro.core.protocols import CampaignState
from repro.exceptions import StoreError
from repro.store.checkpoint import CHECKPOINT_SCHEMA_VERSION, CheckpointStore

FP = "f" * 64


def _state(cycle, *, restorable=True):
    return CampaignState(
        protocol="cont-v",
        seed=3,
        cycle=cycle,
        cycles_total=12,
        done=False,
        restorable=restorable,
        payload={"cycle": cycle} if restorable else None,
    )


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(tmp_path / "checkpoints")


class TestLadder:
    def test_save_and_latest_round_trip(self, store):
        store.save(FP, _state(1), run_id="cont-v-s3", worker="w0")
        store.save(FP, _state(2), run_id="cont-v-s3", worker="w0")
        record = store.latest(FP)
        assert record.cycle == 2 and record.worker == "w0"
        assert record.schema_version == CHECKPOINT_SCHEMA_VERSION
        revived = store.latest_restorable(FP)
        assert revived == _state(2)

    def test_ladder_bounded_to_newest_records(self, store):
        from repro.store.checkpoint import LADDER_DEPTH

        for cycle in (1, 2, 3, 4, 5):
            store.save(FP, _state(cycle), run_id="r", worker="w0")
        kept = [record.cycle for record in store.records(FP)]
        assert kept == [3, 4, 5] and len(kept) == LADDER_DEPTH

    def test_missing_run_reads_empty(self, store):
        assert store.latest(FP) is None
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
        assert store.latest(FP).cycle == 2
        assert store.latest_restorable(FP) == _state(2)

    def test_garbled_middle_line_is_skipped(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        content = path.read_text()
        path.write_text(content + "not json at all\n")
        store.save(FP, _state(2), run_id="r", worker="w0")
        assert [record.cycle for record in store.records(FP)] == [1, 2]

    def test_progress_only_records_are_not_restorable(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        store.save(FP, _state(2, restorable=False), run_id="r", worker="w0")
        assert store.latest(FP).cycle == 2  # progress visible to status
        assert store.latest_restorable(FP) == _state(1)  # resume falls back

    def test_unknown_schema_version_rejected_with_clear_error(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text().splitlines()[0])
        record["schema_version"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest(FP)
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest_restorable(FP)

    def test_schema_1_line_of_an_older_build_is_refused(self, store):
        # Version 1 wrote whole complexes and every trajectory twice; this
        # build must not half-decode one.
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text().splitlines()[0])
        record["schema_version"] = 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="schema_version 1;"):
            store.latest(FP)
        with pytest.raises(StoreError, match="schema_version 1;"):
            store.latest_restorable(FP)

    def test_progress_record_of_done_state_never_restores(self, store):
        # A restorable=True state without payload (e.g. an init state) must
        # not masquerade as a checkpoint.
        state = CampaignState(protocol="cont-v", seed=3, restorable=True)
        store.save(FP, state, run_id="r", worker="w0")
        assert store.latest(FP).restorable is False
        assert store.latest_restorable(FP) is None


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


def _ladder(store, *, newest_restorable=True):
    """A full three-line ladder: cycles 1, 2 and 3."""
    for cycle in (1, 2, 3):
        restorable = newest_restorable or cycle < 3
        store.save(FP, _state(cycle, restorable=restorable), run_id="r", worker="w0")
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
        assert store.latest(FP).cycle == 3
        assert len(decodes) == 1
        decodes.clear()
        assert store.latest_restorable(FP) == _state(3)
        assert len(decodes) == 1

    def test_torn_newest_line_costs_one_more_decode(self, store, decodes):
        _ladder(store)
        _tear_newest_line(store)
        decodes.clear()
        assert store.latest(FP).cycle == 2
        assert len(decodes) == 2
        decodes.clear()
        assert store.latest_restorable(FP) == _state(2)
        assert len(decodes) == 2

    def test_restorable_read_passes_a_progress_only_line(self, store, decodes):
        _ladder(store, newest_restorable=False)
        decodes.clear()
        assert store.latest(FP).cycle == 3
        assert len(decodes) == 1
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
        assert store.latest(FP).cycle == 3  # the walk stops before it
        _tear_newest_line(store)
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest(FP)
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest_restorable(FP)
