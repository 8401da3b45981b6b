"""RunStore mechanics: appends, lazy loads, crash tolerance, versioning, merge."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import StoreError
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.hpc.resources import NodeSpec, PlatformSpec
from repro.store import (
    STORE_SCHEMA_VERSION,
    RunStore,
    decode_run_spec,
    encode_run_spec,
    merge_stores,
    run_fingerprint,
)
from repro.utils.serialization import to_jsonable

SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3,),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture(scope="module")
def executed_records():
    """Two executed suite records shared (read-only) by the tests."""
    return CampaignSuite(SWEEP, executor="serial").run().records


@pytest.fixture()
def populated(tmp_path, executed_records):
    store = RunStore(tmp_path / "runs.jsonl")
    for record in executed_records:
        store.append(record)
    return store


class TestSpecCodec:
    def test_round_trips_plain_overrides(self):
        spec = SWEEP.expand()[0]
        assert decode_run_spec(encode_run_spec(spec)) == spec

    def test_round_trips_platform_spec_and_tuples(self):
        platform = PlatformSpec(
            name="two-node",
            nodes=(
                NodeSpec(name="n0", cpu_cores=8, gpus=1, memory_gb=64.0),
                NodeSpec(name="n1", cpu_cores=8, gpus=1, memory_gb=64.0),
            ),
        )
        sweep = SweepSpec(
            protocols=("im-rp",),
            seeds=(0,),
            platform_specs=(platform,),
            base={"adaptivity_schedule": (True, True, False), "n_cycles": 3},
        )
        spec = sweep.expand()[0]
        decoded = decode_run_spec(encode_run_spec(spec))
        assert decoded == spec
        assert dict(decoded.overrides)["platform_spec"] == platform
        assert dict(decoded.overrides)["adaptivity_schedule"] == (True, True, False)

    def test_unknown_override_type_rejected(self):
        from repro.store.codec import encode_value

        with pytest.raises(StoreError, match="cannot persist"):
            encode_value(object())

    def test_unknown_dataclass_rejected(self):
        payload = encode_run_spec(SWEEP.expand()[0])
        payload["overrides"] = [
            ["platform_spec", {"__kind__": "dataclass", "type": "Mystery", "fields": {}}]
        ]
        with pytest.raises(StoreError, match="unknown dataclass 'Mystery'"):
            decode_run_spec(payload)

    def test_malformed_values_rejected(self):
        from repro.store.codec import decode_value

        with pytest.raises(StoreError, match="malformed tagged value"):
            decode_value({"__kind__": "set", "items": [1]})
        with pytest.raises(StoreError, match="cannot decode stored value of type list"):
            decode_value([1, 2])

    def test_spec_missing_a_field_rejected(self):
        payload = encode_run_spec(SWEEP.expand()[0])
        del payload["protocol"]
        with pytest.raises(StoreError, match="malformed stored run spec"):
            decode_run_spec(payload)


class TestRunStore:
    def test_missing_file_is_an_empty_store(self, tmp_path):
        store = RunStore(tmp_path / "nothing.jsonl")
        assert len(store) == 0
        assert store.fingerprints() == []

    def test_append_then_reload(self, populated, executed_records):
        reloaded = RunStore(populated.path)
        assert len(reloaded) == len(executed_records)
        for record in executed_records:
            fingerprint = run_fingerprint(record.spec)
            assert fingerprint in reloaded
            stored = reloaded.get(fingerprint)
            assert stored.run_id == record.spec.run_id
            assert stored.spec == record.spec
            assert stored.wall_seconds == record.wall_seconds
            assert stored.result.as_dict() == to_jsonable(record.result.as_dict())

    def test_stored_result_view_derives_the_same_science(
        self, populated, executed_records
    ):
        for record in executed_records:
            stored = populated.get(run_fingerprint(record.spec))
            view = stored.result
            assert view.protocol == record.result.protocol
            assert view.seed == record.result.seed
            assert view.n_trajectories == record.result.n_trajectories
            assert view.iteration_summary() == record.result.iteration_summary()
            assert view.net_deltas() == record.result.net_deltas()

    def test_iter_records_is_lazy_and_ordered(self, populated, executed_records):
        iterator = populated.iter_records()
        first = next(iterator)
        assert first.run_id == executed_records[0].spec.run_id
        assert [s.run_id for s in iterator] == [
            r.spec.run_id for r in executed_records[1:]
        ]

    def test_get_unknown_fingerprint(self, populated):
        with pytest.raises(StoreError, match="no run with fingerprint"):
            populated.get("f" * 64)

    def test_duplicate_append_last_wins(self, populated, executed_records):
        record = executed_records[0]
        before = len(populated)
        populated.append(record)
        assert len(populated) == before  # same fingerprint, re-keyed not grown
        reloaded = RunStore(populated.path)
        assert len(reloaded) == before
        stored = reloaded.get(run_fingerprint(record.spec))
        assert stored.result.as_dict() == to_jsonable(record.result.as_dict())

    def test_truncated_final_line_is_ignored_and_overwritten(
        self, populated, executed_records
    ):
        with populated.path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "fingerprint": "abc", "trunca')
        survivor = RunStore(populated.path)
        assert len(survivor) == len(executed_records)
        # The next append overwrites the torn tail and the file parses clean.
        survivor.append(executed_records[0])
        lines = populated.path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert len(RunStore(populated.path)) == len(executed_records)

    def test_corrupt_interior_line_is_a_clear_error(self, populated):
        content = populated.path.read_text().splitlines(keepends=True)
        content.insert(1, "this is not json\n")
        populated.path.write_text("".join(content))
        with pytest.raises(StoreError, match="corrupt run store"):
            RunStore(populated.path)

    def test_unknown_schema_version_rejected(self, populated):
        line = json.loads(populated.path.read_text().splitlines()[0])
        line["schema_version"] = STORE_SCHEMA_VERSION + 999
        populated.path.write_text(json.dumps(line) + "\n")
        with pytest.raises(StoreError, match="schema_version"):
            RunStore(populated.path)

    def test_missing_schema_version_rejected(self, populated):
        line = json.loads(populated.path.read_text().splitlines()[0])
        del line["schema_version"]
        populated.path.write_text(json.dumps(line) + "\n")
        with pytest.raises(StoreError, match="has schema_version None") as caught:
            RunStore(populated.path)
        assert "Re-run the sweep with a matching build" in str(caught.value)

    def test_line_without_fingerprint_is_a_clear_error(self, populated):
        with populated.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema_version": STORE_SCHEMA_VERSION}) + "\n")
            handle.write("[1, 2]\n")
        with pytest.raises(StoreError, match="line 3: not a run record"):
            RunStore(populated.path)

    def test_stored_runs_adapt_to_cached_suite_records(self, populated, executed_records):
        cached = [stored.as_record() for stored in populated.iter_records()]
        assert [r.spec for r in cached] == [r.spec for r in executed_records]
        assert all(record.cached for record in cached)
        assert [r.result.as_dict() for r in cached] == [
            to_jsonable(r.result.as_dict()) for r in executed_records
        ]
        substitute = executed_records[0].spec
        assert populated.records()[0].as_record(substitute).spec is substitute


class TestMergeStores:
    def test_merge_dedupes_by_fingerprint(self, tmp_path, executed_records):
        left = RunStore(tmp_path / "left.jsonl")
        right = RunStore(tmp_path / "right.jsonl")
        left.append(executed_records[0])
        right.append(executed_records[0])  # overlap
        right.append(executed_records[1])
        merged = merge_stores([left, right], tmp_path / "merged.jsonl")
        assert len(merged) == 2

    def test_merge_order_is_canonical(self, tmp_path, executed_records):
        a = RunStore(tmp_path / "a.jsonl")
        b = RunStore(tmp_path / "b.jsonl")
        a.append(executed_records[0])
        b.append(executed_records[1])
        one = merge_stores([a, b], tmp_path / "ab.jsonl")
        two = merge_stores([b, a], tmp_path / "ba.jsonl")
        assert one.path.read_bytes() == two.path.read_bytes()

    def test_merge_tolerates_duplicate_runs_with_different_timings(
        self, tmp_path, executed_records
    ):
        """Overlapping stores (e.g. a full run + a re-run shard) must merge:
        wall_seconds is honest timing, not part of the run's identity."""
        left = RunStore(tmp_path / "left.jsonl")
        left.append(executed_records[0])
        payload = json.loads(left.path.read_text())
        payload["wall_seconds"] += 123.0
        right = tmp_path / "right.jsonl"
        right.write_text(json.dumps(payload) + "\n")
        merged = merge_stores([left, right], tmp_path / "merged.jsonl")
        assert len(merged) == 1
        # First-seen record wins.
        stored = merged.get(run_fingerprint(executed_records[0].spec))
        assert stored.wall_seconds == executed_records[0].wall_seconds

    def test_merge_rejects_conflicting_duplicates(self, tmp_path, executed_records):
        first = RunStore(tmp_path / "first.jsonl")
        first.append(executed_records[0])
        payload = json.loads(first.path.read_text())
        payload["result"]["n_trajectories"] += 1
        conflicting = tmp_path / "conflicting.jsonl"
        conflicting.write_text(json.dumps(payload) + "\n")
        with pytest.raises(StoreError, match="conflicting records"):
            merge_stores([first, conflicting], tmp_path / "out.jsonl")

    def test_merge_missing_input_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="missing store"):
            merge_stores([tmp_path / "ghost.jsonl"], tmp_path / "out.jsonl")
