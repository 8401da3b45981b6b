"""Command-line front end: ``python -m repro.experiments``.

Builds a :class:`~repro.experiments.spec.SweepSpec` from flags, executes it
through the :class:`~repro.experiments.suite.CampaignSuite`, and prints the
per-run table plus the cross-protocol comparison matrix.  Examples::

    # The paper's two protocols, three seeds each, in parallel processes.
    python -m repro.experiments --protocols im-rp cont-v --seeds 0 1 2

    # Ablation: how much of IM-RP's gain is ranked selection?
    python -m repro.experiments --protocols im-rp im-rp-random --seeds 0 1 \\
        --cycles 2 --sequences 6

    # Concurrency-cap knob sweep on the adaptive protocol.
    python -m repro.experiments --protocols im-rp --seeds 0 \\
        --max-in-flight 1 2 4

    # Which protocols are there?
    python -m repro.experiments --list-protocols

    # Resumable sweep: finished runs stream to the store; re-running after an
    # edit (or a crash) executes only the cells the store doesn't hold yet.
    python -m repro.experiments --seeds 0 1 2 --store sweep.jsonl

    # Cross-machine sharding: each machine runs its half against its own
    # store, then `python -m repro.store merge` combines them.
    python -m repro.experiments --seeds 0 1 2 --shard 0/2 --store shard0.jsonl
    python -m repro.experiments --seeds 0 1 2 --shard 1/2 --store shard1.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.comparison import protocol_matrix
from repro.analysis.reporting import format_protocol_matrix
from repro.core.coordinator import AUTO_IN_FLIGHT
from repro.core.protocols import available_protocols, get_protocol
from repro.exceptions import CampaignError, ReproError
from repro.hpc.scheduler import SCHEDULER_POLICIES
from repro.experiments.spec import TARGET_KINDS, SweepSpec, TargetSpec
from repro.experiments.suite import EXECUTORS, CampaignSuite
from repro.store.runstore import RunStore
from repro.utils.serialization import to_jsonable

__all__ = [
    "add_sweep_arguments",
    "build_parser",
    "in_flight_cap",
    "main",
    "positive_int",
    "sweep_from_args",
]


def positive_int(text: str) -> int:
    """Argparse type for values that must be >= 1 (rejected at parse time)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``I/N`` shard designator such as ``0/2``.

    :class:`~repro.experiments.suite.CampaignSuite` checks the range.
    """
    index, _, count = text.partition("/")
    try:
        return int(index), int(count)
    except ValueError:
        raise CampaignError(
            f"shard must look like I/N (e.g. 0/2), got {text!r}"
        ) from None


def in_flight_cap(text: str):
    """Argparse type for ``--max-in-flight``: a positive int or ``auto``."""
    if text == AUTO_IN_FLIGHT:
        return AUTO_IN_FLIGHT
    try:
        return positive_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or {AUTO_IN_FLIGHT!r}, got {text!r}"
        ) from None


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep-defining flags (shared with ``repro.orchestrate init``)."""
    parser.add_argument(
        "--protocols", nargs="+", default=["im-rp", "cont-v"],
        help="protocol names to sweep (default: im-rp cont-v)",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0],
        help="campaign root seeds to sweep (default: 0)",
    )
    parser.add_argument(
        "--targets", choices=TARGET_KINDS, default="named-pdz",
        help="target set every run designs against",
    )
    parser.add_argument(
        "--target-seed", type=int, default=0, help="dataset seed of the target set"
    )
    parser.add_argument(
        "--n-targets", type=positive_int, default=70,
        help="size of the expanded-pdz set (ignored for named-pdz)",
    )
    parser.add_argument(
        "--cycles", type=positive_int, default=None,
        help="design cycles per run (paper: 4)",
    )
    parser.add_argument(
        "--sequences", type=positive_int, default=None,
        help="sequences generated per cycle (paper: 10)",
    )
    parser.add_argument(
        "--max-in-flight", nargs="+", type=in_flight_cap, default=None, metavar="N",
        help="sweep the coordinator concurrency cap over these values "
        "(positive ints, or 'auto' for the utilization-adaptive controller)",
    )
    parser.add_argument(
        "--scheduler", choices=SCHEDULER_POLICIES, default=None,
        help="agent placement policy for pilot-runtime protocols",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run a campaign sweep (protocols x seeds x knobs) in parallel.",
    )
    add_sweep_arguments(parser)
    parser.add_argument(
        "--executor", choices=EXECUTORS, default="process",
        help="how runs execute: process pool (default), thread pool, or serial",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="pool size (default: CPU count)"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full suite result as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent run store (JSONL): stream finished runs to it and "
        "skip runs it already holds (resume / run cache)",
    )
    parser.add_argument(
        "--shard", metavar="I/N", default=None,
        help="execute only shard I of N of the expanded sweep (deterministic "
        "strided partition; merge the per-shard stores afterwards)",
    )
    parser.add_argument(
        "--list-protocols", action="store_true",
        help="list the execution protocols and exit",
    )
    return parser


def _list_protocols() -> str:
    lines = ["Execution protocols:"]
    for name in available_protocols():
        protocol = get_protocol(name)
        lines.append(f"  {name:<14} [{protocol.approach}] — {protocol.summary}")
    return "\n".join(lines)


def sweep_from_args(args: argparse.Namespace) -> SweepSpec:
    """Build the :class:`SweepSpec` from parsed sweep flags (see above)."""
    base: Dict[str, object] = {}
    if args.cycles is not None:
        base["n_cycles"] = args.cycles
    if args.sequences is not None:
        base["n_sequences"] = args.sequences
    if args.scheduler is not None:
        base["scheduler_policy"] = args.scheduler
    knobs: Tuple[Dict[str, object], ...] = ({},)
    # `is not None`, not truthiness: argparse can hand back an empty list
    # (`--max-in-flight` with zero values errors out at parse time today, but
    # programmatic Namespace construction may not go through argparse).
    if args.max_in_flight is not None:
        knobs = tuple(
            {"max_in_flight_pipelines": value} for value in args.max_in_flight
        )
    return SweepSpec(
        protocols=tuple(args.protocols),
        seeds=tuple(args.seeds),
        targets=TargetSpec(
            kind=args.targets, seed=args.target_seed, n_targets=args.n_targets
        ),
        knobs=knobs,
        base=base,
    )


def _format_run_table(records) -> str:
    header = (
        f"{'Run':<24} | {'Approach':<11} | {'Traj':>5} | {'CPU %':>6} | "
        f"{'GPU %':>6} | {'Mkspn(h)':>8} | {'Wall(s)':>8}"
    )
    lines = [header, "-" * len(header)]
    for record in records:
        result = record.result
        run_label = record.spec.run_id + (" *" if record.cached else "")
        lines.append(
            f"{run_label:<24} | {result.approach:<11} | "
            f"{result.n_trajectories:>5} | {100.0 * result.cpu_utilization:>6.1f} | "
            f"{100.0 * result.gpu_utilization:>6.1f} | {result.makespan_hours:>8.1f} | "
            f"{record.wall_seconds:>8.2f}"
        )
    if any(record.cached for record in records):
        lines.append("(* = served from the run store, not re-executed)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_protocols:
        print(_list_protocols())
        return 0
    try:
        sweep = sweep_from_args(args)
        shard = _parse_shard(args.shard) if args.shard else None
        store = RunStore(args.store) if args.store else None
        suite = CampaignSuite(
            spec=sweep, executor=args.executor, max_workers=args.workers,
            shard=shard,
        )
        shard_note = f" [shard {args.shard}]" if shard else ""
        print(
            f"Running {suite.n_runs} campaigns "
            f"({len(sweep.protocols)} protocols x {len(sweep.seeds)} seeds"
            f"{f' x {len(sweep.knobs)} knobs' if len(sweep.knobs) > 1 else ''})"
            f"{shard_note} via {args.executor} executor ..."
        )
        outcome = suite.run(store=store)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    print(_format_run_table(outcome.records))
    print()
    print(format_protocol_matrix(protocol_matrix(outcome.results)))
    print()
    print(
        f"Suite: {outcome.n_runs} runs in {outcome.wall_seconds:.2f}s wall "
        f"({outcome.total_run_seconds:.2f}s aggregate run time, "
        f"speedup {outcome.speedup:.2f}x, executor={outcome.executor}, "
        f"workers={outcome.n_workers})"
    )
    if store is not None:
        percent = 100.0 * outcome.n_cached / outcome.n_runs if outcome.n_runs else 0.0
        print(
            f"Store {store.path}: cache hits {outcome.n_cached}/{outcome.n_runs} "
            f"({percent:.0f}%), executed {outcome.n_executed}, "
            f"stored runs {len(store)}"
        )
    if args.json:
        payload = json.dumps(to_jsonable(outcome.as_dict()), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"Wrote JSON suite result to {args.json}")
    return 0
