"""The layered benchmark of this repository.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 perfledger/run.py --workload fig3-campaign --seed 2025 --seconds 15 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, untraced and traced, saved for ``compare``::

    python3 perfledger/run.py --runs 5 --save before.json
    python3 perfledger/run.py compare before.json after.json

The workload itself runs in fresh child processes (``child.py``), one at a
time.  Files go to ``.perfledger/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfledger"

import spans  # noqa: E402
import verdict  # noqa: E402

#: A run, all its children included, must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Fresh processes that time ``setup_s``; the reported value is their median.
SETUP_SAMPLES = 5

#: Variables that would change what the children run or import.
_CHILD_ENV_DROP = ("PYTHONPATH", "PYTHONSTARTUP", "REPRO_TELEMETRY", "REPRO_FAULTS")
_CHILD_ENV_SET = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

Metrics = Dict[str, Tuple[float, str]]


class BenchmarkFailure(RuntimeError):
    """A child crashed or ran out of time."""


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_child(mode: str, workload: str, seed: int, seconds: float,
               run_dir: Path, deadline: float) -> Dict[str, Any]:
    out = run_dir / f"{mode}-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--work-dir", str(run_dir), "--out", str(out),
        "--spans", str(WORK / f"BENCH_spans_{workload}.json"),
    ]
    env = {key: value for key, value in os.environ.items()
           if key not in _CHILD_ENV_DROP}
    env.update(_CHILD_ENV_SET)
    with subprocess.Popen(command, cwd=ROOT, env=env) as child:
        try:
            child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise BenchmarkFailure(f"{mode} child for {workload} ran out of time")
    if not out.exists():
        raise BenchmarkFailure(f"{mode} child for {workload} exited {child.returncode}"
                               " without a result")
    result = json.loads(out.read_text(encoding="utf-8"))
    if not result["correct"]:
        print(result["error"], file=sys.stderr)
    return result


def end_to_end_metrics(main: Dict[str, Any], setups: List[Dict[str, Any]]) -> Metrics:
    return {
        "wall_s": (statistics.median(s["wall_s"] for s in main["samples"]), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(result: Dict[str, Any]) -> Metrics:
    traced, untraced = result["traced"], result["untraced"]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    def count(key: str) -> float:
        return mean([sample["counts"].get(key, 0) for sample in traced])

    def ratio(numerator: str, denominator: str) -> float:
        base = count(denominator)
        return count(numerator) / base if base else 0.0

    metrics: Metrics = {}
    for layer in spans.LAYER_NAMES:
        metrics[f"{layer}.calls"] = (
            mean([sample["calls"].get(layer, 0) for sample in traced]), "count")
        metrics[f"{layer}.self_s"] = (
            mean([sample["self_s"].get(layer, 0.0) for sample in traced]), "s")
    metrics.update({
        "hpc.events": (count("hpc.events"), "count"),
        "hpc.event_log_records": (
            mean([sample["event_log_records"] for sample in traced]), "count"),
        "runtime.tasks": (count("runtime.tasks"), "count"),
        "core.pipeline.accept_ratio": (
            ratio("core.pipeline.accepted", "core.pipeline.cycles"), "ratio"),
        "core.coordinator.decisions": (count("core.coordinator.decisions"), "count"),
        "core.coordinator.composite_calls": (
            count("core.coordinator.composite_calls"), "count"),
        "core.coordinator.spawned": (count("core.coordinator.spawned"), "count"),
        "core.snapshot.saved_ratio": (
            ratio("store.checkpoint_saves", "core.snapshot.snapshots"), "ratio"),
        "store.checkpoint_bytes": (count("store.checkpoint_bytes"), "bytes"),
        "orchestrate.idle_s": (mean([sample["idle_s"] for sample in traced]), "s"),
        "host.ref_s": (statistics.median(s["probe_s"] for s in untraced), "s"),
        "host.raw_wall_s": (statistics.median(s["raw_s"] for s in untraced), "s"),
        "trace.overhead_frac": (
            statistics.median(s["wall_s"] for s in traced)
            / statistics.median(s["wall_s"] for s in untraced) - 1.0,
            "ratio",
        ),
        "trace.unattributed_s": (
            mean([sample["unattributed_s"] for sample in traced]), "s"),
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run: the contract's result object, digest and missing entry points."""
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        mode = "traced" if trace else "untraced"
        main = _run_child(mode, workload, seed, seconds, run_dir, deadline)
        results = [main]
        if main["correct"] and not trace:
            results += [
                _run_child("setup", workload, seed, seconds, run_dir, deadline)
                for _ in range(SETUP_SAMPLES)
            ]
    except BenchmarkFailure as error:
        print(error, file=sys.stderr)
        main, results = {"attempted": 1, "failed": 1}, [{"correct": False}]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = all(result["correct"] for result in results)
    metrics: Metrics = {}
    if correct:
        metrics = per_layer_metrics(main) if trace else end_to_end_metrics(
            main, results[1:])
    return {
        "correct": correct,
        "attempted": max(1, main.get("attempted", 0)),
        "failed": main.get("failed", 0),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "digest": main.get("digest"),
        "missing_entry_points": main.get("missing", []),
    }


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")


def run_one(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    expected = [metric["name"] for metric in benchmark["per_layer" if trace else "end_to_end"]]
    if result["correct"] and sorted(result["metrics"]) != sorted(expected):
        print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {expected}",
              file=sys.stderr)
        result.update(correct=False, metrics={})
    if result["missing_entry_points"]:
        print("entry points absent from this build:",
              ", ".join(result["missing_entry_points"]), file=sys.stderr)
    _print_metrics(f"{args.workload} seed {args.seed} ({'traced' if trace else 'untraced'})",
                   result["metrics"])
    if result["correct"]:
        print(f"  output digest {result['digest']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    saved: Dict[str, Any] = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for index in range(args.runs):
            seed = args.seed + index
            result = measure(workload, seed, args.seconds, trace=False)
            runs.append(dict(result, seed=seed))
            ok &= result["correct"]
            _print_metrics(f"{workload} seed {seed} untraced", result["metrics"])
        traced = measure(workload, args.seed, args.seconds, trace=True)
        ok &= traced["correct"]
        _print_metrics(f"{workload} seed {args.seed} traced", traced["metrics"])
        saved["workloads"][workload] = {"runs": runs, "traced": traced}
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BEFORE.json AFTER.json", file=sys.stderr)
            return 2
        return verdict.compare_files(Path(argv[1]), Path(argv[2]), benchmark)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload without --workload")
    parser.add_argument("--save", help="file for the set of runs without --workload")
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    if args.workload:
        return run_one(args, benchmark)
    return run_all(args, benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
