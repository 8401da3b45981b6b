"""Resume determinism and sweep sharding — the store's contract with the suite.

Pins the acceptance behaviour: for a seeded sweep, ``run -> edit spec (add a
seed) -> run(store)`` executes exactly the new cells, and the merged result is
bit-identical (per-run fingerprints and result dicts) to a cold full run;
``shard(0,2) + shard(1,2)`` merged equals the unsharded store.
"""

from __future__ import annotations

import pytest

import repro.experiments.suite as suite_module
from repro.analysis.comparison import protocol_matrix, protocol_matrix_from_store
from repro.exceptions import CampaignError
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.store import RunStore, merge_stores, run_fingerprint
from repro.utils.serialization import to_jsonable

BASE_SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)

#: The "edited" sweep: one extra seed appended.
EDITED_SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3, 5, 8),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture()
def counted_execute(monkeypatch):
    """Count real executions while preserving behaviour."""
    calls = []
    real = suite_module.execute_run

    def counting(spec):
        calls.append(spec.run_id)
        return real(spec)

    monkeypatch.setattr(suite_module, "execute_run", counting)
    return calls


class TestResume:
    def test_second_pass_is_100_percent_cache_hits(self, tmp_path, counted_execute):
        store = RunStore(tmp_path / "runs.jsonl")
        first = CampaignSuite(BASE_SWEEP, executor="serial").run(store=store)
        assert first.n_cached == 0 and first.n_executed == 4
        assert len(counted_execute) == 4

        second = CampaignSuite(BASE_SWEEP, executor="serial").run(store=store)
        assert second.n_cached == second.n_runs == 4
        assert second.n_executed == 0
        assert len(counted_execute) == 4  # nothing re-executed
        assert all(record.cached for record in second.records)

    def test_edited_sweep_executes_exactly_the_new_cells(
        self, tmp_path, counted_execute
    ):
        store = RunStore(tmp_path / "runs.jsonl")
        CampaignSuite(BASE_SWEEP, executor="serial").run(store=store)
        counted_execute.clear()

        merged = CampaignSuite(EDITED_SWEEP, executor="serial").run(store=store)
        assert sorted(counted_execute) == ["cont-v-s8", "im-rp-s8"]
        assert merged.n_runs == 6
        assert merged.n_cached == 4

        # Bit-identical to a cold full run: per-run fingerprints and result
        # dicts, in sweep order.
        cold = CampaignSuite(EDITED_SWEEP, executor="serial").run()
        assert [r.spec for r in merged.records] == [r.spec for r in cold.records]
        for warm_record, cold_record in zip(merged.records, cold.records):
            assert run_fingerprint(warm_record.spec) == run_fingerprint(
                cold_record.spec
            )
            assert to_jsonable(warm_record.result.as_dict()) == to_jsonable(
                cold_record.result.as_dict()
            )

    def test_cached_records_feed_the_protocol_matrix_identically(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        cold = CampaignSuite(BASE_SWEEP, executor="serial").run(store=store)
        warm = CampaignSuite(BASE_SWEEP, executor="serial").run(store=store)
        cold_rows = protocol_matrix(cold.results)
        warm_rows = protocol_matrix(warm.results)
        store_rows = protocol_matrix_from_store(store)
        assert warm_rows == cold_rows
        assert store_rows == cold_rows

    def test_thread_executor_streams_and_resumes(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        CampaignSuite(BASE_SWEEP, executor="thread", max_workers=2).run(store=store)
        assert len(store) == 4
        resumed = CampaignSuite(BASE_SWEEP, executor="thread", max_workers=2).run(
            store=store
        )
        assert resumed.n_cached == 4

    def test_suite_result_stamps_schema_version_and_cache_stats(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        outcome = CampaignSuite(BASE_SWEEP, executor="serial").run(store=store)
        payload = to_jsonable(outcome.as_dict())
        assert payload["schema_version"] == suite_module.SUITE_SCHEMA_VERSION
        assert payload["n_cached"] == 0
        assert all(run["cached"] is False for run in payload["runs"])


class TestSharding:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_shards_partition_the_sweep_exactly(self, count):
        shards = [
            [
                run.run_id
                for run in CampaignSuite(
                    BASE_SWEEP, executor="serial", shard=(index, count)
                ).run_specs
            ]
            for index in range(count)
        ]
        selected = [run_id for shard in shards for run_id in shard]
        assert len(selected) == len(set(selected))  # disjoint
        assert sorted(selected) == sorted(run.run_id for run in BASE_SWEEP.expand())
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize(
        "shard, message",
        [
            ((2, 2), "zero-based"),
            ((3, 2), "zero-based"),
            ((-1, 2), "zero-based"),
            ((0, 0), "zero-based"),
            ((4, 5), "selects none of the sweep's 4 runs"),
        ],
        ids=["index-is-count", "index-past-count", "negative-index", "no-shards", "empty"],
    )
    def test_invalid_shards_rejected(self, shard, message):
        with pytest.raises(CampaignError, match=message):
            CampaignSuite(BASE_SWEEP, executor="serial", shard=shard)

    def test_suite_shard_matches_strided_expansion(self):
        suite = CampaignSuite(BASE_SWEEP, executor="serial", shard=(1, 2))
        assert suite.run_specs == BASE_SWEEP.expand()[1::2]

    def test_sharded_stores_merge_to_the_unsharded_store(self, tmp_path):
        for index in (0, 1):
            CampaignSuite(BASE_SWEEP, executor="serial", shard=(index, 2)).run(
                store=RunStore(tmp_path / f"shard{index}.jsonl")
            )
        full_store = RunStore(tmp_path / "full.jsonl")
        CampaignSuite(BASE_SWEEP, executor="serial").run(store=full_store)

        merged = merge_stores(
            [tmp_path / "shard0.jsonl", tmp_path / "shard1.jsonl"],
            tmp_path / "merged.jsonl",
        )
        assert sorted(merged.fingerprints()) == sorted(full_store.fingerprints())
        for fingerprint in full_store.fingerprints():
            shard_stored = merged.get(fingerprint)
            full_stored = full_store.get(fingerprint)
            assert shard_stored.spec == full_stored.spec
            # Identical science; wall_seconds (timing) legitimately differs.
            assert shard_stored.result.as_dict() == full_stored.result.as_dict()

    def test_sharded_run_resumes_against_the_merged_store(self, tmp_path):
        for index in (0, 1):
            CampaignSuite(BASE_SWEEP, executor="serial", shard=(index, 2)).run(
                store=RunStore(tmp_path / f"shard{index}.jsonl")
            )
        merged = merge_stores(
            [tmp_path / "shard0.jsonl", tmp_path / "shard1.jsonl"],
            tmp_path / "merged.jsonl",
        )
        outcome = CampaignSuite(BASE_SWEEP, executor="serial").run(store=merged)
        assert outcome.n_cached == outcome.n_runs == 4
