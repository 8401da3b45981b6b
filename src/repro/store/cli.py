"""Command-line front end: ``python -m repro.store``.

Operates on persistent run stores written by
``python -m repro.experiments --store`` (or ``CampaignSuite.run(store=…)``)::

    # What's in this store?
    python -m repro.store inspect sweep.jsonl
    python -m repro.store inspect sweep.jsonl --runs

    # Combine two machines' shards into one canonical store.
    python -m repro.store merge merged.jsonl shard0.jsonl shard1.jsonl

    # The cross-protocol comparison matrix, straight from disk.
    python -m repro.store report merged.jsonl

    # Compact a long-lived store: gc superseded duplicate lines and torn
    # tails, write canonical fingerprint-sorted output (in place by default).
    python -m repro.store prune sweep.jsonl
    python -m repro.store prune sweep.jsonl --output canonical.jsonl --strip-timing
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.comparison import protocol_matrix_from_store
from repro.analysis.reporting import format_protocol_matrix
from repro.exceptions import ReproError, StoreError
from repro.store.runstore import RunStore, merge_stores, prune_store

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect, merge and report persistent campaign-run stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    inspect = commands.add_parser(
        "inspect", help="summarise a store (runs, protocols, timings)"
    )
    inspect.add_argument("path", help="store JSONL file")
    inspect.add_argument(
        "--runs", action="store_true", help="also list every stored run"
    )

    merge = commands.add_parser(
        "merge",
        help="merge stores (e.g. sweep shards) into one canonical, "
        "fingerprint-sorted store",
    )
    merge.add_argument("output", help="merged store to write")
    merge.add_argument("inputs", nargs="+", help="store files to merge")

    report = commands.add_parser(
        "report", help="print the cross-protocol comparison matrix of a store"
    )
    report.add_argument("path", help="store JSONL file")

    prune = commands.add_parser(
        "prune",
        help="compact a store: keep the newest record per fingerprint, drop "
        "torn tails, write canonical fingerprint-sorted output",
    )
    prune.add_argument("path", help="store JSONL file to compact")
    prune.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the pruned store here instead of replacing the input "
        "in place (atomically)",
    )
    prune.add_argument(
        "--strip-timing", action="store_true",
        help="zero each record's wall_seconds so stores from different "
        "executions of the same sweep become byte-comparable",
    )
    return parser


def _inspect(path: str, list_runs: bool) -> str:
    store = RunStore(path)
    lines = [f"Run store {store.path} — {len(store)} runs"]
    by_protocol: Dict[str, int] = {}
    seeds: Dict[str, List[int]] = {}
    total_wall = 0.0
    rows: List[str] = []
    for stored in store.iter_records():
        by_protocol[stored.spec.protocol] = by_protocol.get(stored.spec.protocol, 0) + 1
        seeds.setdefault(stored.spec.protocol, []).append(stored.spec.seed)
        total_wall += stored.wall_seconds
        rows.append(
            f"  {stored.run_id:<24} {stored.fingerprint[:12]}…  "
            f"traj={stored.result.n_trajectories:<4} "
            f"wall={stored.wall_seconds:.2f}s"
        )
    for protocol in sorted(by_protocol):
        seed_list = ", ".join(str(seed) for seed in sorted(seeds[protocol]))
        lines.append(
            f"  {protocol:<16} {by_protocol[protocol]} runs (seeds: {seed_list})"
        )
    lines.append(f"  aggregate execution time: {total_wall:.2f}s")
    if list_runs:
        lines.append("Runs:")
        lines.extend(rows)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("inspect", "report", "prune") and not Path(
            args.path
        ).is_file():
            raise StoreError(f"no such store file: {args.path}")
        if args.command == "inspect":
            print(_inspect(args.path, args.runs))
        elif args.command == "merge":
            merged = merge_stores(args.inputs, args.output)
            print(
                f"Merged {len(args.inputs)} stores into {merged.path} "
                f"({len(merged)} unique runs)"
            )
        elif args.command == "report":
            print(format_protocol_matrix(protocol_matrix_from_store(args.path)))
        elif args.command == "prune":
            with Path(args.path).open("r", encoding="utf-8") as handle:
                raw_lines = sum(1 for line in handle if line.strip())
            pruned = prune_store(
                args.path, args.output, strip_timing=args.strip_timing
            )
            dropped = raw_lines - len(pruned)
            print(
                f"Pruned {args.path} -> {pruned.path}: {len(pruned)} runs kept, "
                f"{dropped} superseded/torn line(s) dropped"
                f"{', timing stripped' if args.strip_timing else ''}"
            )
    except FileNotFoundError as error:
        print(f"error: no such store: {error.filename}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0
