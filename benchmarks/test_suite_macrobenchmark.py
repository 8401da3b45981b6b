"""Suite-level macrobenchmark: campaign-matrix throughput, serial vs parallel.

Where the microbenchmarks track single hot paths, this tracks the end-to-end
throughput of the :class:`~repro.experiments.CampaignSuite` engine on a real
scenario matrix — the four registered protocols x two seeds (8 campaigns)
over the named PDZ targets.  The serial case is the baseline the parallel
case's wall-clock speedup is measured against; on a single-core runner the
process pool is expected to break even (minus pool overhead), on multi-core
hardware it should approach min(n_workers, n_runs)x.

Two store variants bound the persistence layer: streaming finished runs to a
:class:`~repro.store.RunStore` should add negligible overhead over in-memory
execution, and a warm (100% cache-hit) pass executes no campaign at all.
Both print their wall-clock ratios instead of asserting them.
"""

from __future__ import annotations

import time

import repro.experiments.suite as suite_module
from benchmarks.conftest import PAPER_SEED, print_banner
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.store import RunStore

#: 4 protocols x 2 seeds = 8 campaigns, two design cycles each.
SUITE_SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v", "im-rp-random", "cont-v-ranked"),
    seeds=(PAPER_SEED, PAPER_SEED + 1),
    targets=TargetSpec(kind="named-pdz", seed=PAPER_SEED),
    base={"n_cycles": 2, "n_sequences": 6},
)


def _run_suite(executor: str):
    return CampaignSuite(SUITE_SWEEP, executor=executor, max_workers=4).run()


def test_campaign_suite_serial(benchmark):
    outcome = benchmark.pedantic(_run_suite, args=("serial",), rounds=1, iterations=1)
    assert outcome.n_runs == SUITE_SWEEP.n_runs == 8
    print_banner("Campaign suite — serial baseline (8 campaigns)")
    print(
        f"wall {outcome.wall_seconds:.2f}s, aggregate {outcome.total_run_seconds:.2f}s"
    )


def test_campaign_suite_store_streaming_overhead(tmp_path):
    """Streaming every finished run to the store should be ~free.

    Runs the 8-campaign matrix serially twice — in-memory vs streaming to a
    cold store — and reports the relative overhead of fingerprinting +
    append/flush/fsync.  Measured overhead on a quiet host is < 5%; the
    ratio is printed, not asserted, so the outcome does not depend on the
    host's load.
    """
    start = time.perf_counter()
    in_memory = CampaignSuite(SUITE_SWEEP, executor="serial").run()
    memory_seconds = time.perf_counter() - start

    store = RunStore(tmp_path / "suite.jsonl")
    start = time.perf_counter()
    streamed = CampaignSuite(SUITE_SWEEP, executor="serial").run(store=store)
    streamed_seconds = time.perf_counter() - start

    assert in_memory.n_runs == streamed.n_runs == 8
    assert streamed.n_cached == 0 and len(store) == 8
    overhead = streamed_seconds / memory_seconds - 1.0
    print_banner("Campaign suite — streaming-to-store overhead (8 campaigns)")
    print(
        f"in-memory {memory_seconds:.2f}s, streaming {streamed_seconds:.2f}s, "
        f"overhead {100.0 * overhead:+.1f}%"
    )


def test_campaign_suite_warm_store(tmp_path, monkeypatch):
    """A fully cached pass executes no campaign.

    The warm pass re-expands the sweep, fingerprints all 8 cells, finds every
    one in the store and reloads the records from JSONL; ``execute_run`` is
    counted to show that no campaign executes.  Cached records must also be
    bit-compatible with the cold run (same protocol/seed identity, same
    trajectory counts).  The cold/warm speedup is printed, not asserted, so
    the outcome does not depend on the host's load.
    """
    executed = []
    real_execute = suite_module.execute_run

    def counting(spec):
        executed.append(spec.run_id)
        return real_execute(spec)

    monkeypatch.setattr(suite_module, "execute_run", counting)
    store = RunStore(tmp_path / "suite.jsonl")
    start = time.perf_counter()
    cold = CampaignSuite(SUITE_SWEEP, executor="serial").run(store=store)
    cold_seconds = time.perf_counter() - start
    assert cold.n_cached == 0 and cold.n_runs == 8
    assert len(executed) == 8

    start = time.perf_counter()
    warm = CampaignSuite(SUITE_SWEEP, executor="serial").run(store=store)
    warm_seconds = time.perf_counter() - start
    assert warm.n_cached == warm.n_runs == 8
    assert len(executed) == 8  # the warm pass executed nothing

    for cold_record, warm_record in zip(cold.records, warm.records):
        assert warm_record.cached
        assert warm_record.spec == cold_record.spec
        assert warm_record.result.protocol == cold_record.result.protocol
        assert warm_record.result.seed == cold_record.result.seed
        assert warm_record.result.n_trajectories == cold_record.result.n_trajectories

    speedup = cold_seconds / warm_seconds
    print_banner("Campaign suite — warm store (8 campaigns, 100% cache hits)")
    print(
        f"cold {cold_seconds:.2f}s, warm {warm_seconds * 1000.0:.1f}ms, "
        f"cache speedup {speedup:.0f}x"
    )


def test_campaign_suite_process_pool(benchmark):
    outcome = benchmark.pedantic(_run_suite, args=("process",), rounds=1, iterations=1)
    assert outcome.n_runs == 8
    # Determinism under fan-out: every protocol/seed cell produced a result
    # with the expected identity.
    for record in outcome.records:
        assert record.result.protocol == record.spec.protocol
        assert record.result.seed == record.spec.seed
    print_banner("Campaign suite — process pool (8 campaigns, 4 workers)")
    print(
        f"wall {outcome.wall_seconds:.2f}s, aggregate {outcome.total_run_seconds:.2f}s, "
        f"speedup-vs-aggregate {outcome.speedup:.2f}x"
    )
