"""The chaos soak: a sweep under a seeded fault adversary, proven by bytes.

``run_chaos`` executes one sweep three times over, in one call:

1. **reference** — a clean, fault-free serial run in this process, pruned
   with ``strip_timing`` into the canonical byte layout;
2. **storm** — the same sweep through a queue directory drained by worker
   *subprocesses* that inherit a seeded :class:`~repro.faults.FaultPlan`
   via the environment (every durability seam in them may tear, stall, lie
   about the clock, or SIGKILL the process), while this process plays the
   adversary: delivering deterministic-victim SIGKILLs and respawning
   workers so the fleet keeps its size;
3. **drain** — faults off: leftover failed markers (spent budgets, poison
   quarantines) and dead workers' claims are cleared and a clean in-process
   worker finishes whatever survived the storm — resuming from the storm's
   own checkpoints, which is the point: recovery must produce the *same
   bytes*, not merely "a result".

Then ``finalize --strip-timing`` merges every store the storm and the drain
wrote, and the finalized bytes are compared against the reference.  Any
divergence — a lost record, a half-applied append that healed wrong, a
double execution that didn't dedup — fails the soak loudly.

The schedule is deterministic per seed (see :mod:`repro.faults.plan`), so a
failing soak replays: rerun with the same seed, sweep and worker count, and
the same faults fire at the same crossings.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import repro
from repro.exceptions import OrchestrationError
from repro.experiments.spec import SweepSpec
from repro.experiments.suite import CampaignSuite, execute_run
from repro.faults.plan import FAULTS_ENV, FaultPlan, ForcedFault, _uniform
from repro.faults.registry import active_plan
from repro.orchestrate.coordinator import finalize_queue
from repro.orchestrate.queue import WorkQueue
from repro.orchestrate.worker import run_worker
from repro.store.runstore import RunStore, prune_store
from repro.telemetry import api as telemetry
from repro.telemetry.writer import read_telemetry_dir

__all__ = ["DEFAULT_CHAOS_RATES", "ChaosReport", "run_chaos"]

#: Default per-crossing fault probabilities for the storm.  Deliberately
#: modest: the point is many *survivable* faults per soak, not a fleet that
#: dies faster than it can be respawned.  Crash kinds stay rare because every
#: crash costs a lease expiry before the run moves again.
DEFAULT_CHAOS_RATES: Dict[str, float] = {
    "io_error": 0.03,
    "enospc": 0.01,
    "torn_write": 0.02,
    "crash_after_write": 0.01,
    "crash_before_rename": 0.01,
    "slow_io": 0.05,
    "clock_skew": 0.10,
}

#: Storm-loop poll interval (progress checks, reaping, respawns).
_STORM_POLL_SECONDS = 0.05


@dataclass
class ChaosReport:
    """What one soak did and how it ended."""

    seed: int
    n_runs: int
    workers: int
    #: Adversary SIGKILLs actually delivered (≤ the requested budget: a
    #: sweep can drain before the budget is spent).
    kills_delivered: int
    #: Worker subprocesses spawned over the storm (initial fleet + respawns).
    workers_spawned: int
    #: ``worker_id -> returncode`` of every storm worker (negative = signal;
    #: ``-9`` is an adversary kill or an injected ``crash_*`` fault).
    worker_exits: Dict[str, int] = field(default_factory=dict)
    #: Faults fired across every storm process, by kind (from the plan's
    #: event logs; crash events are logged before the process dies).
    injected_by_kind: Dict[str, int] = field(default_factory=dict)
    #: The same events grouped by failpoint site.
    injected_by_site: Dict[str, int] = field(default_factory=dict)
    #: ``run_id -> reason`` of failed markers the storm left behind (cleared
    #: before the drain; ``poison``/``timeout``/``error``).
    failed_in_storm: Dict[str, str] = field(default_factory=dict)
    #: Run ids the clean drain worker had to execute (the storm's survivors
    #: finished the rest).
    drained: List[str] = field(default_factory=list)
    finalized_path: Optional[Path] = None
    reference_path: Optional[Path] = None
    wall_seconds: float = 0.0

    def summary(self) -> str:
        """A one-paragraph human rendering (the CLI's output)."""
        faults = (
            ", ".join(
                f"{kind}×{count}"
                for kind, count in sorted(self.injected_by_kind.items())
            )
            or "none"
        )
        return (
            f"chaos seed {self.seed}: {self.n_runs} runs, "
            f"{self.workers_spawned} worker(s) spawned "
            f"({self.kills_delivered} adversary kill(s)), "
            f"faults fired: {faults}; "
            f"{len(self.failed_in_storm)} failed marker(s) cleared, "
            f"{len(self.drained)} run(s) finished by the clean drain; "
            f"finalized store byte-identical to the serial reference "
            f"in {self.wall_seconds:.1f}s"
        )


def _repro_src() -> str:
    return str(Path(repro.__file__).resolve().parent.parent)


def _worker_env(plan: FaultPlan) -> Dict[str, str]:
    env = dict(os.environ)
    src = _repro_src()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env[FAULTS_ENV] = plan.to_env()
    return env


def _spawn_worker(
    queue: WorkQueue,
    worker_id: str,
    env: Dict[str, str],
    log_dir: Path,
    *,
    lease_seconds: float,
    max_attempts: int,
    run_timeout: Optional[float],
    trace: bool = False,
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro.orchestrate", "worker",
        "--queue", str(queue.path),
        "--worker-id", worker_id,
        "--lease", f"{lease_seconds:g}",
        "--poll", "0.05",
        "--checkpoint-interval", "0",
        "--max-attempts", str(max_attempts),
    ]
    if run_timeout is not None:
        command += ["--run-timeout", f"{run_timeout:g}"]
    if trace:
        command += ["--telemetry"]
    log_dir.mkdir(parents=True, exist_ok=True)
    log = (log_dir / f"{worker_id}.log").open("w", encoding="utf-8")
    try:
        return subprocess.Popen(
            command, env=env, stdout=log, stderr=subprocess.STDOUT,
            close_fds=True,
        )
    finally:
        log.close()  # the child holds its own descriptor


def _terminated(queue: WorkQueue, n_runs: int) -> bool:
    """Every manifest run carries a done or failed marker."""
    finished = set(queue.done_fingerprints()) | set(queue.failed_fingerprints())
    return len(finished) >= n_runs


def _work_started(queue: WorkQueue) -> bool:
    """Whether any worker has visibly begun (kills land mid-work, not before)."""
    return (
        any(queue.claims_dir.glob("*.json"))
        or any(queue.checkpoints_dir.glob("*.jsonl"))
        or any(queue.done_dir.glob("*.json"))
    )


def _collect_fault_events(*dirs: Path) -> List[Dict[str, object]]:
    """Fired-fault attrs from every telemetry stream under ``dirs``.

    Faults ride the unified telemetry schema (``name="fault"`` events): a
    traced storm logs them in the workers' own streams, an untraced one in
    the plan's per-pid fallback streams — the report reads both the same
    way.  Torn tails from crashing processes are skipped by the reader.
    """
    events: List[Dict[str, object]] = []
    for directory in dict.fromkeys(dirs):
        for record in read_telemetry_dir(directory):
            if record.get("kind") == "event" and record.get("name") == "fault":
                attrs = record.get("attrs")
                if isinstance(attrs, dict):
                    events.append(attrs)
    return events


def run_chaos(
    queue_dir: Union[str, Path],
    sweep: SweepSpec,
    *,
    seed: int,
    workers: int = 2,
    kills: int = 1,
    rates: Optional[Mapping[str, float]] = None,
    force: Sequence[ForcedFault] = (),
    max_attempts: int = 3,
    lease_seconds: float = 2.0,
    run_timeout: Optional[float] = None,
    storm_timeout: float = 120.0,
    output: Optional[Union[str, Path]] = None,
    trace: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Soak ``sweep`` under a seeded adversary and verify byte-identity.

    Parameters
    ----------
    queue_dir:
        Fresh directory for the soak's queue (reference store, event logs
        and worker logs land under it too).
    sweep:
        The campaign sweep to execute (storm and reference run the same one).
    seed:
        Adversary identity: fault schedule *and* kill-victim choices derive
        from it, so a soak replays.
    workers:
        Storm fleet size; dead workers (injected crashes, adversary kills)
        are respawned to keep the fleet at this size, within a bounded spawn
        budget.
    kills:
        Adversary SIGKILL budget, delivered one at a time once work is
        visibly underway.
    rates / force:
        The :class:`~repro.faults.FaultPlan` schedule for the storm workers
        (defaults to :data:`DEFAULT_CHAOS_RATES`); ``force`` entries
        guarantee specific faults at specific crossings (CI smokes).
    max_attempts:
        Per-run retry budget in the storm workers.  Must be >= 2: the storm
        must drain past injected failures instead of dying on the first one
        (and the poison quarantine only arms beyond budget 1).
    lease_seconds:
        Storm lease; short, so stolen-from-the-dead recovery actually
        happens within the soak.
    run_timeout:
        Optional per-run watchdog passed through to the storm workers.
    storm_timeout:
        Wall-clock bound on the storm phase; whatever is unfinished then is
        left to the clean drain (the soak still verifies byte-identity).
    output:
        Finalized store path (default ``<queue_dir>/chaos-finalized.jsonl``).
    trace:
        Run the soak with telemetry on: storm workers stream spans/events
        (and their fired faults) to ``<queue_dir>/telemetry/``, and the
        harness itself traces adversary kills and the clean drain.  The
        byte-identity verdict is unchanged by tracing — that is the
        out-of-band contract this flag exists to soak.
    log:
        Optional line sink for progress (the CLI passes ``print``).

    Raises
    ------
    OrchestrationError
        When the finalized bytes diverge from the reference, so a returned
        report is always of a byte-identical soak.
    """
    if workers < 1:
        raise OrchestrationError("chaos needs at least one worker")
    if kills < 0:
        raise OrchestrationError("kills must be >= 0")
    if max_attempts < 2:
        raise OrchestrationError(
            "chaos requires max_attempts >= 2: storm workers must outlive "
            "injected failures instead of failing fast on the first one"
        )
    if active_plan() is not None:
        raise OrchestrationError(
            "a fault plan is active in this process; the chaos harness must "
            "run fault-free (only its worker subprocesses are injected)"
        )
    start = time.perf_counter()
    emit = log or (lambda _line: None)
    queue_dir = Path(queue_dir)
    queue = WorkQueue.create(queue_dir, sweep)
    n_runs = len(queue.entries())
    report = ChaosReport(
        seed=seed, n_runs=n_runs, workers=workers,
        kills_delivered=0, workers_spawned=0,
    )

    # 1. Clean serial reference, canonicalised (this process, faults off).
    emit(f"chaos: serial reference for {n_runs} run(s)…")
    reference_raw = RunStore(queue_dir / "chaos-reference-raw.jsonl")
    CampaignSuite(sweep, executor="serial").run(store=reference_raw)
    reference = prune_store(
        reference_raw.path, queue_dir / "chaos-reference.jsonl",
        strip_timing=True,
    )
    report.reference_path = reference.path

    # 2. The storm.
    events_dir = queue_dir / "chaos-events"
    logs_dir = queue_dir / "chaos-logs"
    telemetry_dir = queue_dir / "telemetry"
    plan = FaultPlan(
        seed,
        rates=DEFAULT_CHAOS_RATES if rates is None else rates,
        force=force,
        log_dir=str(events_dir),
    )
    env = _worker_env(plan)
    emit(
        f"chaos: storm with {workers} worker(s), kill budget {kills}, "
        f"plan seed {seed}"
    )
    fleet: Dict[str, subprocess.Popen] = {}
    max_spawns = workers + kills + 16  # respawn budget: bounded churn
    deadline = time.monotonic() + storm_timeout
    # The harness's own trace (adversary kills, the drain worker, finalize)
    # shares the storm workers' telemetry directory; scoping is manual so
    # phase 1 — the serial reference — stays untraced either way.
    tracer = telemetry.scoped(telemetry_dir, "chaos-adversary") if trace else None
    if tracer is not None:
        tracer.__enter__()

    def spawn() -> None:
        worker_id = f"chaos-w{report.workers_spawned}"
        fleet[worker_id] = _spawn_worker(
            queue, worker_id, env, logs_dir,
            lease_seconds=lease_seconds, max_attempts=max_attempts,
            run_timeout=run_timeout, trace=trace,
        )
        report.workers_spawned += 1

    try:
        for _ in range(workers):
            spawn()
        try:
            while not _terminated(queue, n_runs):
                for worker_id, process in list(fleet.items()):
                    code = process.poll()
                    if code is not None:
                        report.worker_exits[worker_id] = code
                        del fleet[worker_id]
                if (
                    report.kills_delivered < kills
                    and fleet
                    and _work_started(queue)
                ):
                    alive = sorted(fleet)
                    pick = _uniform(
                        seed, "chaos.kill", report.kills_delivered + 1
                    )
                    victim = alive[int(pick * len(alive))]
                    fleet[victim].send_signal(signal.SIGKILL)
                    report.kills_delivered += 1
                    telemetry.event(
                        "chaos.kill",
                        victim=victim,
                        kill_index=report.kills_delivered,
                    )
                    emit(f"chaos: adversary SIGKILLed {victim}")
                while (
                    len(fleet) < workers
                    and report.workers_spawned < max_spawns
                ):
                    spawn()
                if not fleet:
                    emit("chaos: fleet extinct and respawn budget spent")
                    break
                if time.monotonic() > deadline:
                    emit(
                        "chaos: storm timeout; handing over to the clean drain"
                    )
                    break
                time.sleep(_STORM_POLL_SECONDS)
        finally:
            for worker_id, process in fleet.items():
                process.send_signal(signal.SIGKILL)
                process.wait()
                report.worker_exits[worker_id] = process.returncode

        # 3. Clean drain: clear storm residue, finish in-process, faults off.
        for fingerprint in queue.failed_fingerprints():
            record = queue.failed_record(fingerprint) or {}
            report.failed_in_storm[str(record.get("run_id", fingerprint))] = (
                str(record.get("reason", "unknown"))
            )
            queue.failed_path(fingerprint).unlink()
        for claim in queue.claims_dir.glob("*.json"):
            claim.unlink()  # every holder is dead; don't wait out their leases
        emit(
            f"chaos: clean drain ({len(report.failed_in_storm)} failed "
            "marker(s) cleared)"
        )
        drained = run_worker(
            queue, worker_id="chaos-drain", lease_seconds=lease_seconds,
            checkpoint_seconds=0.0, wait=False, execute=execute_run,
        )
        report.drained = list(drained.executed)

        # 4. Finalize and compare bytes.
        finalized = finalize_queue(
            queue,
            queue_dir / "chaos-finalized.jsonl" if output is None else output,
            strip_timing=True,
        )
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    report.finalized_path = finalized.path
    for event in _collect_fault_events(events_dir, telemetry_dir):
        kind, site = str(event.get("kind")), str(event.get("site"))
        report.injected_by_kind[kind] = report.injected_by_kind.get(kind, 0) + 1
        report.injected_by_site[site] = report.injected_by_site.get(site, 0) + 1
    report.wall_seconds = time.perf_counter() - start
    if finalized.path.read_bytes() != reference.path.read_bytes():
        raise OrchestrationError(
            f"chaos soak diverged: {finalized.path} is not byte-identical to "
            f"the serial reference {reference.path} (seed {seed}; rerun with "
            "the same seed/sweep/workers to replay the schedule)"
        )
    return report
