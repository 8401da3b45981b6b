"""One workload in a fresh process; ``run.py`` starts it and reads ``--out``.

Modes:

* ``setup``: time importing ``repro`` and building the inputs, then exit;
* ``untraced``: fixture, one warm-up iteration, then timed iterations for
  ``--seconds``;
* ``traced``: an untraced warm-up, then pairs of one untraced and one traced
  iteration for ``--seconds``; the last traced iteration's spans go to
  ``--spans``.

Every iteration runs under a ``SpeedProbe`` and is reported both raw and on
the nominal host (see ``hostref``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from hostref import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Workload, WorkloadError  # noqa: E402

#: Fewest timed iterations (untraced) or iteration pairs (traced) per run.
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2

#: Traced wall time must equal the layers' self time plus unattributed time
#: within this share.
SELF_TIME_TOLERANCE = 0.01


def _timed(workload: Workload) -> Dict[str, Any]:
    probe = SpeedProbe()
    with probe:
        start = time.perf_counter()
        output = workload.iteration()
        raw = time.perf_counter() - start
    return {
        "output": output,
        "raw_s": raw,
        "wall_s": probe.normalise(raw),
        "probe_s": probe.typical(),
    }


def _checked_repro_location() -> None:
    import repro

    source = (ROOT / "src").resolve()
    location = Path(repro.__file__).resolve()
    if source not in location.parents:
        raise WorkloadError(f"repro was imported from {location}, not {source}")


class Run:
    """One child run: counts, digests and samples as they accumulate."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload: Workload = WORKLOADS[args.workload](
            args.seed, Path(args.work_dir)
        )
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        self.pinned = (
            pins["digests"][args.workload] if args.seed == pins["seed"] else None
        )

    def iterate(self, index: int,
                tracer: Optional[spans.Tracer] = None) -> Dict[str, Any]:
        """One checked iteration; the first one sets the expected digest.

        A full collection first gives every iteration the same collector
        state, so collections inside it do not depend on earlier iterations.
        """
        self.workload.prepare(index)
        gc.collect()
        self.attempted += self.workload.operations
        if tracer is not None:
            tracer.install()
        try:
            sample = _timed(self.workload)
        except Exception:
            self.failed += self.workload.operations
            raise
        finally:
            if tracer is not None:
                tracer.uninstall()
        digest, failed = self.workload.check(sample.pop("output"))
        self.failed += failed
        if not self.digest:
            if self.pinned is not None and digest != self.pinned:
                raise WorkloadError(
                    f"digest {digest} differs from the one pinned for seed "
                    f"{self.args.seed}: {self.pinned}"
                )
            self.digest = digest
        elif digest != self.digest:
            raise WorkloadError(f"iteration {index} digest {digest} != {self.digest}")
        return sample

    def untraced(self) -> Dict[str, Any]:
        self.workload.fixture()
        self.iterate(0)
        samples: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < self.args.seconds
               or len(samples) < MIN_ITERATIONS):
            samples.append(self.iterate(len(samples) + 1))
            if len(samples) == 1:
                # After a fixed amount of work: the program's caches keep
                # growing with every iteration, and a faster program runs
                # more iterations in the same time.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"samples": samples, "peak_rss_mb": peak_rss_mb}

    def traced(self) -> Dict[str, Any]:
        self.workload.fixture()
        self.iterate(0)
        tracer = spans.Tracer()
        untraced: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        last_spans: List[spans.Span] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < self.args.seconds
               or len(traced) < MIN_TRACED_PAIRS):
            untraced.append(self.iterate(2 * len(traced) + 1))
            sample = self.iterate(2 * len(traced) + 2, tracer)
            last_spans = list(tracer.spans)
            traced.append(_layer_sample(sample, last_spans, tracer))
        _write_spans(Path(self.args.spans), self.args, tracer, last_spans)
        return {"untraced": untraced, "traced": traced, "missing": tracer.missing}


def _layer_sample(sample: Dict[str, Any], recorded: List[spans.Span],
                  tracer: spans.Tracer) -> Dict[str, Any]:
    """Per-layer numbers of one traced iteration, on the nominal host."""
    raw = sample["raw_s"]
    self_raw = spans.self_times(recorded)
    unattributed = spans.unattributed_time(recorded, raw)
    if abs(sum(self_raw.values()) + unattributed - raw) > SELF_TIME_TOLERANCE * raw:
        raise WorkloadError("layer self times do not add up to the traced wall time")
    scale = sample["wall_s"] / raw
    sample.update(
        self_s={layer: seconds * scale for layer, seconds in self_raw.items()},
        calls=dict(Counter(layer for _, layer, _, _, _ in recorded)),
        counts=dict(tracer.counts),
        event_log_records=tracer.event_log_records(),
        unattributed_s=unattributed * scale,
        idle_s=spans.idle_time(recorded, "run_worker", "execute_run") * scale,
    )
    return sample


def _write_spans(path: Path, args: argparse.Namespace, tracer: spans.Tracer,
                 recorded: List[spans.Span]) -> None:
    """The last traced iteration's spans, times in seconds from its start."""
    origin = min((start for _, _, start, _, _ in recorded), default=0.0)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "layer", "start_s", "end_s", "parent"],
        "missing_entry_points": tracer.missing,
        "spans": [
            [name, layer, round(start - origin, 7), round(end - origin, 7), parent]
            for name, layer, start, end, parent in recorded
        ],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    result: Dict[str, Any] = {"correct": False, "error": None}
    status = 1
    run = Run(args)
    try:
        probe = SpeedProbe()
        with probe:
            start = time.perf_counter()
            run.workload.setup()
            raw = time.perf_counter() - start
        _checked_repro_location()
        result.update(setup_raw_s=raw, setup_s=probe.normalise(raw))
        if args.mode == "untraced":
            result.update(run.untraced())
        elif args.mode == "traced":
            result.update(run.traced())
        result["correct"] = True
        status = 0
    except Exception:
        result["error"] = traceback.format_exc()
    if args.mode != "setup":
        result.update(
            attempted=run.attempted,
            failed=run.failed,
            digest=run.digest,
        )
    Path(args.out).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
