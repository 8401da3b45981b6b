"""Command-line front end: ``python -m repro.orchestrate``.

Drives a fault-tolerant multi-worker sweep over a shared queue directory —
any filesystem every worker can reach (one machine's /tmp, or an HPC
parallel filesystem across nodes).  The canonical two-worker session::

    # 1. Materialise the sweep into a queue directory (same flags as
    #    `python -m repro.experiments`).
    python -m repro.orchestrate init --queue Q --protocols im-rp cont-v --seeds 0 1

    # 2. Start workers — anywhere that mounts Q; each claims runs
    #    dynamically, heartbeats its lease and streams to its own store.
    python -m repro.orchestrate worker --queue Q &
    python -m repro.orchestrate worker --queue Q &

    # 3. Watch the sweep drain (live/stale/unclaimed, throughput, ETA).
    python -m repro.orchestrate status --queue Q

    # 4. Merge the per-worker stores into one canonical store.
    python -m repro.orchestrate finalize --queue Q --output sweep.jsonl
    python -m repro.store report sweep.jsonl

A worker that dies mid-run loses nothing: its claim's lease expires and a
surviving worker steals the run.  Because claims are keyed by RunSpec
fingerprint and seeded runs are deterministic, the finalized store is
independent of worker count, interleaving and steals (and with
``--strip-timing``, byte-identical to a pruned serial-suite store).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.progress import format_queue_progress
from repro.analysis.scaling import format_scaling_table
from repro.analysis.timeline import fleet_timeline, format_fleet_timeline
from repro.exceptions import ConfigurationError, OrchestrationError, ReproError
from repro.experiments.cli import add_sweep_arguments, positive_int, sweep_from_args
from repro.faults.plan import FAULT_KINDS, ForcedFault
from repro.orchestrate.chaos import run_chaos
from repro.orchestrate.coordinator import finalize_queue, queue_progress
from repro.orchestrate.queue import QueueEntry, WorkQueue
from repro.orchestrate.scaling import run_scaling_study
from repro.orchestrate.worker import (
    DEFAULT_CHECKPOINT_SECONDS,
    DEFAULT_LEASE_SECONDS,
    DEFAULT_POLL_SECONDS,
    default_worker_id,
    run_worker,
)
from repro.telemetry import api as telemetry

__all__ = ["build_parser", "main"]


def _parse_rates(pairs: Sequence[str]) -> dict:
    """Parse repeated ``KIND=RATE`` flags into a fault-rate mapping."""
    rates: dict = {}
    for pair in pairs:
        kind, separator, rate = pair.partition("=")
        if not separator:
            raise ConfigurationError(
                f"fault rate must be KIND=RATE, got {pair!r} "
                f"(kinds: {', '.join(FAULT_KINDS)})"
            )
        try:
            rates[kind] = float(rate)
        except ValueError:
            raise ConfigurationError(
                f"fault rate for {kind!r} must be a number, got {rate!r}"
            ) from None
    return rates


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate",
        description="Fault-tolerant multi-worker sweep orchestration with "
        "dynamic work stealing over a shared queue directory.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser(
        "init", help="expand a sweep into a queue directory's manifest"
    )
    init.add_argument("--queue", required=True, metavar="DIR", help="queue directory")
    add_sweep_arguments(init)

    worker = commands.add_parser(
        "worker", help="claim and execute runs from a queue until it drains"
    )
    worker.add_argument("--queue", required=True, metavar="DIR", help="queue directory")
    worker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="lease-owner name and store-file stem (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--store", default=None, metavar="PATH",
        help="stream finished runs here instead of <queue>/stores/<id>.jsonl "
        "(pass it to finalize via --extra-store)",
    )
    worker.add_argument(
        "--lease", type=_positive_float, default=DEFAULT_LEASE_SECONDS, metavar="S",
        help=f"seconds without a heartbeat before peers may steal a claim "
        f"(default: {DEFAULT_LEASE_SECONDS:g})",
    )
    worker.add_argument(
        "--poll", type=_positive_float, default=DEFAULT_POLL_SECONDS, metavar="S",
        help="idle sleep between passes when nothing is claimable "
        f"(default: {DEFAULT_POLL_SECONDS:g})",
    )
    worker.add_argument(
        "--max-runs", type=positive_int, default=None, metavar="N",
        help="exit after executing N runs (default: run until the sweep drains)",
    )
    worker.add_argument(
        "--checkpoint-interval", type=_nonnegative_float,
        default=DEFAULT_CHECKPOINT_SECONDS, metavar="S",
        help="minimum seconds between checkpoint saves of one run, counted "
        "from its latest restore point (the previous save, or the checkpoint "
        "a resume read); 0 saves at every cycle boundary (default: "
        f"{DEFAULT_CHECKPOINT_SECONDS:g})",
    )
    worker.add_argument(
        "--max-attempts", type=positive_int, default=1, metavar="N",
        help="execution-failure budget per run: 1 (default) fails fast as "
        "before; N>1 retries (resuming from checkpoints), then publishes a "
        "failed/ marker and keeps draining",
    )
    worker.add_argument(
        "--run-timeout", type=_positive_float, default=None, metavar="S",
        help="per-run wall-clock watchdog: abandon an attempt still "
        "executing after S seconds and count it against --max-attempts "
        "(default: no watchdog)",
    )
    worker.add_argument(
        "--no-wait", action="store_true",
        help="exit when nothing is claimable instead of polling for "
        "stealable leases (for fixed-size fleets)",
    )
    worker.add_argument(
        "--telemetry", action="store_true",
        help="trace this worker's spans/events to "
        "<queue>/telemetry/<worker-id>.jsonl (out-of-band: science bytes "
        "are unchanged; read back with `status --watch` and `report`)",
    )

    status = commands.add_parser(
        "status", help="report progress, throughput and in-flight leases"
    )
    status.add_argument("--queue", required=True, metavar="DIR", help="queue directory")
    status.add_argument(
        "--lease", type=_positive_float, default=DEFAULT_LEASE_SECONDS, metavar="S",
        help="lease the workers were started with (sets the live/stale split)",
    )
    status.add_argument(
        "--watch", action="store_true",
        help="live dashboard: redraw until the queue drains (telemetry "
        "fleet summary included when <queue>/telemetry exists)",
    )
    status.add_argument(
        "--interval", type=_positive_float, default=2.0, metavar="S",
        help="refresh period for --watch (default: 2)",
    )

    report = commands.add_parser(
        "report",
        help="reconstruct the fleet timeline and utilization table from "
        "<queue>/telemetry (run workers with --telemetry first)",
    )
    report.add_argument("--queue", required=True, metavar="DIR", help="queue directory")
    report.add_argument(
        "--bins", type=positive_int, default=40, metavar="N",
        help="busy-timeline resolution (default: 40 bins over the makespan)",
    )

    finalize = commands.add_parser(
        "finalize",
        help="merge the per-worker stores into one canonical store",
    )
    finalize.add_argument(
        "--queue", required=True, metavar="DIR", help="queue directory"
    )
    finalize.add_argument(
        "--output", required=True, metavar="PATH", help="merged store to write"
    )
    finalize.add_argument(
        "--partial", action="store_true",
        help="merge whatever is done instead of requiring a drained queue",
    )
    finalize.add_argument(
        "--strip-timing", action="store_true",
        help="zero wall_seconds in the output (byte-comparable across "
        "executions; see `repro.store prune --strip-timing`)",
    )
    finalize.add_argument(
        "--extra-store", action="append", default=[], metavar="PATH",
        help="additional worker store written outside <queue>/stores/ "
        "(repeatable)",
    )

    scale = commands.add_parser(
        "scale",
        help="run the same sweep at each fleet size (threaded workers, "
        "traced), byte-compare the finalized stores and print the "
        "speedup/utilization scaling table",
    )
    scale.add_argument(
        "--queue", required=True, metavar="DIR",
        help="base directory; each fleet size drains <DIR>/scale-w<N>",
    )
    add_sweep_arguments(scale)
    scale.add_argument(
        "--workers", default="1,2", metavar="N,N,...",
        help="comma-separated fleet sizes to measure (default: 1,2)",
    )
    scale.add_argument(
        "--lease", type=_positive_float, default=60.0, metavar="S",
        help="worker lease seconds for the threaded fleets (default: 60)",
    )
    scale.add_argument(
        "--json", default=None, metavar="PATH",
        help="where to persist the study as JSON "
        "(default: <DIR>/scaling.json)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="soak a sweep under a seeded fault adversary and verify the "
        "finalized store is byte-identical to a clean serial run",
    )
    chaos.add_argument(
        "--queue", required=True, metavar="DIR",
        help="fresh directory for the soak's queue and artifacts",
    )
    add_sweep_arguments(chaos)
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="adversary seed: fault schedule and kill victims derive from "
        "it, so a failing soak replays (default: 0)",
    )
    chaos.add_argument(
        "--workers", type=positive_int, default=2, metavar="N",
        help="storm fleet size; dead workers are respawned (default: 2)",
    )
    chaos.add_argument(
        "--kills", type=int, default=1, metavar="N",
        help="adversary SIGKILL budget, delivered once work is underway "
        "(default: 1)",
    )
    chaos.add_argument(
        "--rate", action="append", default=[], metavar="KIND=RATE",
        help="per-crossing fault probability, repeatable (kinds: "
        f"{', '.join(FAULT_KINDS)}; default: a modest mixed schedule)",
    )
    chaos.add_argument(
        "--force", action="append", default=[], metavar="SITE:AT:KIND",
        help="guarantee KIND at the AT-th crossing of failpoint SITE, "
        "repeatable (e.g. store.append:1:crash_after_write)",
    )
    chaos.add_argument(
        "--max-attempts", type=positive_int, default=3, metavar="N",
        help="storm workers' per-run retry budget; must be >= 2 (default: 3)",
    )
    chaos.add_argument(
        "--lease", type=_positive_float, default=2.0, metavar="S",
        help="storm lease seconds — short, so crash recovery happens within "
        "the soak (default: 2)",
    )
    chaos.add_argument(
        "--run-timeout", type=_positive_float, default=None, metavar="S",
        help="per-run watchdog passed to the storm workers (default: none)",
    )
    chaos.add_argument(
        "--storm-timeout", type=_positive_float, default=120.0, metavar="S",
        help="wall-clock bound on the storm phase; the clean drain finishes "
        "the rest (default: 120)",
    )
    chaos.add_argument(
        "--output", default=None, metavar="PATH",
        help="finalized store path (default: <queue>/chaos-finalized.jsonl)",
    )
    chaos.add_argument(
        "--telemetry", action="store_true",
        help="soak with tracing on: storm workers, adversary kills and the "
        "clean drain stream to <queue>/telemetry/ (the byte-identity check "
        "is unchanged — that is the point)",
    )
    return parser


def _status_text(queue_dir: str, lease_seconds: float) -> "tuple[str, bool]":
    """One status frame: progress plus (when traced) the fleet summary.

    Returns the text and whether the queue is drained (every manifest run
    carries a done or failed marker) — the ``--watch`` loop's exit signal.
    """
    progress = queue_progress(queue_dir, lease_seconds=lease_seconds)
    text = format_queue_progress(progress)
    telemetry_dir = Path(queue_dir) / "telemetry"
    if telemetry_dir.is_dir():
        fleet = fleet_timeline(telemetry_dir)
        text += "\n\n" + format_fleet_timeline(fleet)
    drained = (
        progress.n_runs > 0
        and progress.n_done + progress.n_failed >= progress.n_runs
    )
    return text, drained


def _watch(queue_dir: str, lease_seconds: float, interval: float) -> None:
    """Redraw the dashboard until the queue drains (or ctrl-C).

    On a terminal each frame clears the screen (a live dashboard); piped or
    redirected — CI logs, ``| tee`` — the ANSI codes would be garbage, so
    frames print as plain snapshots separated by a rule line instead.
    """
    is_tty = sys.stdout.isatty()
    first = True
    while True:
        text, drained = _status_text(queue_dir, lease_seconds)
        if is_tty:
            # ANSI clear-screen + home: a live dashboard, not a scrolling log.
            print(f"\x1b[2J\x1b[H{text}", flush=True)
        else:
            if not first:
                print("-" * 72, flush=True)
            print(text, flush=True)
        first = False
        if drained:
            return
        time.sleep(interval)


def _parse_fleet_sizes(text: str) -> "list[int]":
    """Parse the ``scale --workers`` flag: comma-separated sizes >= 1."""
    try:
        sizes = [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--workers must be comma-separated integers, got {text!r}"
        ) from None
    if not sizes or any(size < 1 for size in sizes):
        raise ConfigurationError(
            f"--workers needs one or more sizes >= 1, got {text!r}"
        )
    return sizes


def _worker_log(event: str, entry: QueueEntry) -> None:
    labels = {
        "claim": "claimed", "steal": "stole (expired lease)",
        "resume": "resumed from checkpoint",
        "retry": "retrying (attempt budget left)",
        "failed": "failed permanently (budget spent)",
        "poison": "quarantined (crashed its workers repeatedly)",
        "done": "finished", "heal": "healed (marker republished)",
    }
    print(f"  {labels.get(event, event)}: {entry.spec.run_id}", flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "init":
            sweep = sweep_from_args(args)
            queue = WorkQueue.create(args.queue, sweep)
            print(
                f"Initialised queue {queue.path}: {len(queue.entries())} runs "
                f"({len(sweep.protocols)} protocols x {len(sweep.seeds)} seeds"
                f"{f' x {len(sweep.knobs)} knobs' if len(sweep.knobs) > 1 else ''})"
            )
        elif args.command == "worker":
            worker_id = args.worker_id or default_worker_id()
            if args.telemetry:
                # Enabled before the loop so every span lands in one stream
                # named like the lease owner and the store stem.
                telemetry.enable(Path(args.queue) / "telemetry", worker_id)
            outcome = run_worker(
                args.queue,
                worker_id=worker_id,
                store_path=args.store,
                lease_seconds=args.lease,
                poll_seconds=args.poll,
                max_runs=args.max_runs,
                max_attempts=args.max_attempts,
                checkpoint_seconds=args.checkpoint_interval,
                run_timeout=args.run_timeout,
                wait=not args.no_wait,
                on_progress=_worker_log,
            )
            stolen = f", {len(outcome.stolen)} stolen" if outcome.stolen else ""
            resumed = (
                f", {len(outcome.resumed)} resumed from checkpoint"
                if outcome.resumed
                else ""
            )
            failed = f", {len(outcome.failed)} failed" if outcome.failed else ""
            healed = f", {len(outcome.healed)} healed" if outcome.healed else ""
            print(
                f"Worker {outcome.worker_id}: executed {outcome.n_executed} "
                f"run(s){stolen}{resumed}{failed}{healed} in "
                f"{outcome.wall_seconds:.2f}s -> {outcome.store_path}"
            )
        elif args.command == "status":
            if args.watch:
                _watch(args.queue, args.lease, args.interval)
            else:
                print(_status_text(args.queue, args.lease)[0])
        elif args.command == "report":
            telemetry_dir = Path(args.queue) / "telemetry"
            if not telemetry_dir.is_dir():
                raise OrchestrationError(
                    f"no telemetry directory at {telemetry_dir}; start "
                    "workers with --telemetry to trace a sweep"
                )
            print(
                format_fleet_timeline(
                    fleet_timeline(telemetry_dir), bins=args.bins
                )
            )
        elif args.command == "finalize":
            merged = finalize_queue(
                args.queue,
                args.output,
                require_complete=not args.partial,
                strip_timing=args.strip_timing,
                extra_stores=args.extra_store,
            )
            print(
                f"Finalized queue {args.queue} -> {merged.path} "
                f"({len(merged)} runs"
                f"{', timing stripped' if args.strip_timing else ''})"
            )
        elif args.command == "scale":
            study, runs = run_scaling_study(
                args.queue,
                sweep_from_args(args),
                _parse_fleet_sizes(args.workers),
                lease_seconds=args.lease,
                log=print,
            )
            json_path = study.save(
                args.json
                if args.json is not None
                else Path(args.queue) / "scaling.json"
            )
            print()
            print(format_scaling_table(study))
            print()
            print(
                f"Finalized stores byte-identical across "
                f"{len(runs)} fleet size(s); study JSON -> {json_path}"
            )
        elif args.command == "chaos":
            report = run_chaos(
                args.queue,
                sweep_from_args(args),
                seed=args.chaos_seed,
                workers=args.workers,
                kills=args.kills,
                rates=_parse_rates(args.rate) or None,
                force=[ForcedFault.parse(text) for text in args.force],
                max_attempts=args.max_attempts,
                lease_seconds=args.lease,
                run_timeout=args.run_timeout,
                storm_timeout=args.storm_timeout,
                output=args.output,
                trace=args.telemetry,
                log=print,
            )
            print(report.summary())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0
