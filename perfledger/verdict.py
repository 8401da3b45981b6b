"""``run.py compare BEFORE.json AFTER.json``: a verdict per workload and metric.

For each workload and end-to-end metric, both sets' median and quartiles
and one verdict:

* ``worse``: the after-median is worse than the before-median by more than
  the metric's bound in ``BENCHMARK.json``;
* ``better``: after wins at least nine tenths of the runs paired by seed,
  and the medians differ by more than the before-runs' own quartile spread;
* ``unresolved``: either side's quartile spread exceeds the bound and
  neither side wins every run against every run of the other;
* ``same``: none of these.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def relative_spread(values: Sequence[float]) -> float:
    low, median, high = quartiles(values)
    return (high - low) / median


def decide(before: Sequence[float], after: Sequence[float], lower_is_better: bool,
           bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0

    def gain(old: float, new: float) -> float:
        return sign * (old - new)

    base = statistics.median(before)
    change = gain(base, statistics.median(after)) / base
    every_better = all(gain(old, new) > 0 for old in before for new in after)
    every_worse = all(gain(old, new) < 0 for old in before for new in after)
    if max(relative_spread(before), relative_spread(after)) > bound:
        if every_better:
            return "better"
        return "worse" if every_worse else "unresolved"
    if -change > bound:
        return "worse"
    pairs = list(zip(before, after))
    wins = sum(gain(old, new) > 0 for old, new in pairs)
    if wins >= 0.9 * len(pairs) and change > relative_spread(before):
        return "better"
    return "same"


def _values(saved: Dict[str, Any], workload: str, metric: str) -> List[float]:
    runs = saved["workloads"][workload]["runs"]
    return [run["metrics"][metric]["value"] for run in runs if run["correct"]]


def compare_files(before_path: Path, after_path: Path, benchmark: Dict[str, Any]) -> int:
    before = json.loads(before_path.read_text(encoding="utf-8"))
    after = json.loads(after_path.read_text(encoding="utf-8"))
    header = (f"{'workload':18s} {'metric':12s} {'before q1/median/q3':>30s} "
              f"{'after q1/median/q3':>30s}  verdict")
    print(header)
    worst = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old = _values(before, workload, name)
            new = _values(after, workload, name)
            if not old or not new:
                print(f"{workload:18s} {name:12s} {'(no correct runs)':>62s}  unresolved")
                worst = 1
                continue
            outcome = decide(old, new, metric["better"] == "lower", metric["bound"])
            worst |= outcome in ("worse", "unresolved")
            cells = ["/".join(f"{value:.4g}" for value in quartiles(values))
                     for values in (old, new)]
            print(f"{workload:18s} {name:12s} {cells[0]:>30s} {cells[1]:>30s}  {outcome}")
    return worst
