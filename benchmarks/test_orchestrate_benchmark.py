"""Orchestration benchmark: dynamic work stealing vs static sharding.

The paper's utilization argument in miniature: when run times are uneven,
a static ``shard i/n`` partition leaves the lucky worker idle while the
unlucky one grinds — the *idle tail*.  A dynamic queue assigns the next run
to whichever worker frees up first, shrinking that tail.

The uneven sweep makes the effect deterministic: a ``n_cycles`` knob axis of
(1, 3) puts a ~3x duration spread into the matrix, and the strided static
partition (``runs[i::2]`` with the knob axis fastest-varying) lands all the
short runs on one shard and all the long ones on the other — the worst
realistic case, and exactly what happens when a static shard correlates with
an expensive knob setting.

Also bounds the coordination tax: a full single-worker orchestrated pass
(manifest decode + claim + heartbeat + store append + done marker per run)
must stay within 2x of the bare serial suite on this tiny sweep (measured
overhead is a few percent on runs of realistic length).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from benchmarks.conftest import PAPER_SEED, print_banner
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.orchestrate import WorkQueue, finalize_queue, run_worker

#: 2 protocols x 2 seeds x 2 workload knobs = 8 runs with a severalfold
#: duration spread (1 cycle of 4 sequences vs 5 cycles of 10).
UNEVEN_SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(PAPER_SEED, PAPER_SEED + 1),
    targets=TargetSpec(kind="named-pdz", seed=PAPER_SEED),
    knobs=(
        {"n_cycles": 1, "n_sequences": 4},
        {"n_cycles": 5, "n_sequences": 10},
    ),
)

N_WORKERS = 2


def _makespan_static(durations: Sequence[float]) -> List[float]:
    """Per-worker busy time under the strided ``runs[i::n]`` partition."""
    return [
        sum(durations[index::N_WORKERS]) for index in range(N_WORKERS)
    ]


def _makespan_dynamic(durations: Sequence[float]) -> List[float]:
    """Per-worker busy time under greedy queue order (next free worker pulls
    the next run) — list scheduling, what the work queue implements."""
    workers = [0.0] * N_WORKERS
    for duration in durations:
        index = min(range(N_WORKERS), key=workers.__getitem__)
        workers[index] += duration
    return workers


def _idle_tail(loads: Sequence[float]) -> float:
    """Fraction of the makespan the early-finishing workers sit idle."""
    makespan = max(loads)
    if makespan <= 0:
        return 0.0
    return 1.0 - (sum(loads) / N_WORKERS) / makespan


def test_dynamic_queue_beats_static_sharding():
    """With each run's simulated task hours as its load, the dynamic queue's
    idle tail must be well under the static strided partition's on the
    uneven sweep.  Task hours are deterministic, so the asserts cannot flake
    on a loaded host; the measured wall-clock loads are printed beside them."""
    CampaignSuite(UNEVEN_SWEEP, executor="serial").run()  # warm caches/imports
    outcome = CampaignSuite(UNEVEN_SWEEP, executor="serial").run()
    hours = [record.result.total_task_hours for record in outcome.records]
    seconds = [record.wall_seconds for record in outcome.records]

    static_loads = _makespan_static(hours)
    dynamic_loads = _makespan_dynamic(hours)
    static_tail = _idle_tail(static_loads)
    dynamic_tail = _idle_tail(dynamic_loads)
    static_wall = _makespan_static(seconds)
    dynamic_wall = _makespan_dynamic(seconds)

    print_banner("Orchestration — static shards vs dynamic queue (8 uneven runs)")
    print(f"per-run task hours: {' '.join(f'{h:.1f}h' for h in hours)}")
    print(f"per-run wall clock: {' '.join(f'{s * 1000:.0f}ms' for s in seconds)}")
    for label, loads, wall in (
        ("static  shards", static_loads, static_wall),
        ("dynamic queue ", dynamic_loads, dynamic_wall),
    ):
        print(
            f"{label}: loads {loads[0]:.1f}h/{loads[1]:.1f}h, idle tail "
            f"{100 * _idle_tail(loads):.0f}% (wall clock {wall[0]:.2f}s/"
            f"{wall[1]:.2f}s, idle tail {100 * _idle_tail(wall):.0f}%)"
        )
    # The knob axis varies fastest, so the strided partition concentrates the
    # 5-cycle runs on one shard: its idle tail should be large ...
    assert static_tail > 0.15
    # ... and dynamic assignment must beat it with room to spare.
    assert dynamic_tail < static_tail / 2
    assert max(dynamic_loads) < max(static_loads)


def test_orchestration_overhead_bounded(tmp_path):
    """One worker draining the queue vs the bare serial suite: reports the
    per-run coordination cost (claims, heartbeats, markers, per-worker
    store) on these sub-second runs.  Wall-clock ratios are printed, not
    asserted, so the outcome does not depend on the host's load."""
    start = time.perf_counter()
    serial = CampaignSuite(UNEVEN_SWEEP, executor="serial").run()
    serial_seconds = time.perf_counter() - start

    queue = WorkQueue.create(tmp_path / "queue", UNEVEN_SWEEP)
    start = time.perf_counter()
    outcome = run_worker(queue, worker_id="bench-w0")
    orchestrated_seconds = time.perf_counter() - start
    assert outcome.n_executed == serial.n_runs == 8

    merged = finalize_queue(queue, tmp_path / "final.jsonl")
    assert len(merged) == 8

    per_run_ms = (
        1000.0 * (orchestrated_seconds - serial_seconds) / outcome.n_executed
    )
    print_banner("Orchestration — single-worker coordination overhead (8 runs)")
    print(
        f"serial suite {serial_seconds:.2f}s, orchestrated {orchestrated_seconds:.2f}s "
        f"({per_run_ms:+.1f}ms per run, "
        f"{orchestrated_seconds / serial_seconds:.2f}x serial)"
    )


def test_disabled_failpoints_overhead_bounded(tmp_path):
    """Failpoints sit unconditionally on every durability seam (store
    appends, claims, heartbeats, markers) — no build flags, no
    monkeypatching — so their *disabled* cost is paid by every ordinary
    run.  Bound it: measure the per-call cost of a disabled
    ``faults.failpoint``, count the real crossings of a full single-worker
    drain with a zero-rate counting plan, and require the product to stay
    within 5% of that drain's wall time."""
    from repro import faults
    from repro.faults import FaultPlan

    faults.deactivate()
    calls = 200_000
    faults.failpoint("store.append")  # warm the lookup path
    start = time.perf_counter()
    for _ in range(calls):
        faults.failpoint("store.append")
    per_call_seconds = (time.perf_counter() - start) / calls

    # A zero-rate plan never fires, but its per-site counters record every
    # crossing an orchestrated drain actually makes.
    queue = WorkQueue.create(tmp_path / "queue", UNEVEN_SWEEP)
    plan = FaultPlan(0)
    with faults.injected_plan(plan):
        start = time.perf_counter()
        outcome = run_worker(queue, worker_id="bench-fp")
        drain_seconds = time.perf_counter() - start
    assert outcome.n_executed == 8

    crossings = sum(plan.invocations.values())
    assert crossings >= 3 * outcome.n_executed  # claim + append + done, minimum
    overhead_seconds = per_call_seconds * crossings
    overhead_fraction = overhead_seconds / drain_seconds

    print_banner(
        "Fault injection — disabled-failpoint tax on the single-worker drain"
    )
    print(
        f"disabled failpoint: {per_call_seconds * 1e9:.0f}ns/call; "
        f"drain of 8 runs crossed {crossings} failpoints across "
        f"{len(plan.invocations)} sites in {drain_seconds:.2f}s"
    )
    print(
        f"total failpoint tax {overhead_seconds * 1e3:.3f}ms "
        f"({100 * overhead_fraction:.4f}% of the drain)"
    )
    # The acceptance bound; the measured tax is orders of magnitude below.
    assert overhead_fraction <= 0.05


def test_disabled_telemetry_overhead_bounded(tmp_path):
    """Telemetry sits on the same seams as the failpoints (every append,
    heartbeat, checkpoint, publish) plus the worker loop itself, so its
    *disabled* cost rides every untraced run.  Bound it the same way:
    per-call cost of a disabled crossing x the crossing count of a real
    drain must stay within 5% of that drain's wall time."""
    from repro import telemetry

    telemetry.disable()
    calls = 100_000
    telemetry.event("store.append", store="s", run="r", bytes=512)  # warm
    with telemetry.span("worker.run", run="r"):
        pass
    start = time.perf_counter()
    for _ in range(calls):
        telemetry.event("store.append", store="s", run="r", bytes=512)
        with telemetry.span("worker.run", run="r"):
            pass
    # Each loop iteration is two crossings (one event, one span).
    per_call_seconds = (time.perf_counter() - start) / (2 * calls)

    # An untraced drain for the wall-clock baseline...
    queue = WorkQueue.create(tmp_path / "queue", UNEVEN_SWEEP)
    start = time.perf_counter()
    outcome = run_worker(queue, worker_id="bench-tel")
    drain_seconds = time.perf_counter() - start
    assert outcome.n_executed == 8

    # ...and a traced drain of the same sweep to count the crossings an
    # enabled stream actually records.
    traced_queue = WorkQueue.create(tmp_path / "traced", UNEVEN_SWEEP)
    with telemetry.scoped(traced_queue.path / "telemetry", "bench-tel"):
        traced = run_worker(traced_queue, worker_id="bench-tel")
    assert traced.n_executed == 8
    crossings = len(
        telemetry.read_telemetry_dir(traced_queue.path / "telemetry")
    )
    assert crossings >= 4 * traced.n_executed  # run+execute+publish+append, min

    overhead_seconds = per_call_seconds * crossings
    overhead_fraction = overhead_seconds / drain_seconds

    print_banner(
        "Telemetry — disabled-tracing tax on the single-worker drain"
    )
    print(
        f"disabled crossing: {per_call_seconds * 1e9:.0f}ns/call; "
        f"a traced drain of 8 runs records {crossings} crossings; "
        f"untraced drain {drain_seconds:.2f}s"
    )
    print(
        f"total telemetry tax {overhead_seconds * 1e3:.3f}ms "
        f"({100 * overhead_fraction:.4f}% of the drain)"
    )
    # The acceptance bound; the measured tax is orders of magnitude below.
    assert overhead_fraction <= 0.05
    telemetry.reset()


def test_queue_primitive_throughput(benchmark, tmp_path):
    """Microbenchmark of the per-run coordination cycle: claim -> done-marker
    -> is_done, on a fresh fingerprint each round."""
    queue = WorkQueue.create(tmp_path / "queue", UNEVEN_SWEEP)
    from repro.orchestrate import try_claim

    counter: Dict[str, int] = {"i": 0}

    def cycle():
        fingerprint = f"{counter['i']:064d}"
        counter["i"] += 1
        assert try_claim(queue.claim_path(fingerprint), "bench")
        queue.mark_done(
            fingerprint, worker_id="bench", run_id="bench-run", wall_seconds=0.0
        )
        return queue.is_done(fingerprint)

    assert benchmark(cycle)


#: Checkpointable (sequential-protocol) sweep with a single long-tail run:
#: three 1-cycle runs and one 6-cycle run (4 targets x 6 cycles = 24
#: checkpointable steps).
CHECKPOINT_SWEEP = SweepSpec(
    protocols=("cont-v",),
    seeds=(PAPER_SEED, PAPER_SEED + 1),
    targets=TargetSpec(kind="named-pdz", seed=PAPER_SEED),
    knobs=(
        {"n_cycles": 1, "n_sequences": 4},
        {"n_cycles": 6, "n_sequences": 4},
    ),
)

#: Where the victim dies, in completed cycles of the 24-cycle long run.
KILL_AT_CYCLE = 16


def test_preemptive_stealing_shrinks_the_long_tail(tmp_path):
    """Recovering a worker killed deep inside a long campaign: whole-run
    stealing (PR 4) re-executes every completed cycle — a 67% waste tail at a
    two-thirds kill point, and 8% residual idle even in PR 4's best dynamic
    case — while checkpoint resume re-executes at most one cycle.

    The hard assertions are on *cycle counts* (deterministic); the measured
    takeover wall times are printed alongside.
    """
    from repro.experiments.suite import execute_run
    from repro.store import CheckpointStore

    long_spec = next(
        spec
        for spec in CHECKPOINT_SWEEP.expand()
        if dict(spec.overrides)["n_cycles"] == 6
    )
    total_cycles = 24
    checkpoints = CheckpointStore(tmp_path / "checkpoints")
    fingerprint = "bench-long-run"

    # The victim's execution: stream checkpoints, die after KILL_AT_CYCLE.
    class Killed(RuntimeError):
        pass

    def victim_hook(state):
        checkpoints.save(fingerprint, state, run_id=long_spec.run_id, worker="victim")
        if state.cycle >= KILL_AT_CYCLE:
            raise Killed()

    start = time.perf_counter()
    try:
        execute_run(long_spec, on_cycle=victim_hook)
        raise AssertionError("victim was supposed to die mid-campaign")
    except Killed:
        pass
    victim_seconds = time.perf_counter() - start

    # Whole-run stealing: the survivor starts over.
    start = time.perf_counter()
    restart_cycles = []
    execute_run(long_spec, on_cycle=lambda state: restart_cycles.append(state.cycle))
    restart_seconds = time.perf_counter() - start

    # Preemptive stealing: the survivor resumes from the last checkpoint.
    resume_state = checkpoints.latest_restorable(fingerprint)
    assert resume_state is not None and resume_state.cycle == KILL_AT_CYCLE
    start = time.perf_counter()
    resumed_cycles = []
    result, _ = execute_run(
        long_spec,
        resume_state=resume_state,
        on_cycle=lambda state: resumed_cycles.append(state.cycle),
    )
    resume_seconds = time.perf_counter() - start

    remaining = total_cycles - KILL_AT_CYCLE
    restart_waste = (len(restart_cycles) - remaining) / total_cycles
    resume_waste = (len(resumed_cycles) - remaining) / total_cycles

    print_banner(
        "Orchestration — killed-worker takeover: whole-run steal vs "
        "checkpoint resume (24-cycle run, killed at 16)"
    )
    print(
        f"victim ran {victim_seconds:.2f}s to cycle {KILL_AT_CYCLE}; takeover "
        f"restart {restart_seconds:.2f}s vs resume {resume_seconds:.2f}s "
        f"({restart_seconds / max(resume_seconds, 1e-9):.1f}x faster)"
    )
    print(
        f"re-executed cycle fraction: whole-run steal "
        f"{100 * restart_waste:.0f}%, checkpoint resume "
        f"{100 * resume_waste:.0f}% (PR 4 whole-run dynamic-queue idle "
        f"tail was 8%)"
    )
    # Whole-run stealing redoes the completed two thirds ...
    assert restart_waste == KILL_AT_CYCLE / total_cycles
    # ... checkpoint resume redoes at most one cycle — far below even PR 4's
    # 8% whole-run-stealing residual.
    assert resume_waste <= 1 / total_cycles
    assert resume_waste < 0.08 < restart_waste
    # The resumed result is the complete campaign, not a truncated one.
    assert result.n_cycles == 6
