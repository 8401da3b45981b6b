"""Fleet timelines from telemetry streams: where the wall-clock went.

The simulated platform answers utilization questions through
:mod:`repro.hpc.profiling`; this module answers the same questions for the
*real* fleet — the ``repro.orchestrate`` workers — from the telemetry
directory they stream to (``<queue>/telemetry/``).  It reconstructs one
:class:`WorkerTimeline` per worker label (``worker.run`` spans are the busy
intervals; checkpoint/publish spans and retry/heartbeat/fault events the
overhead detail), aggregates them into a :class:`FleetTimeline`, and renders
the paper-style report: a per-worker utilization table, ASCII busy
timelines, and a critical-path/straggler summary.

Everything here is read-side and pure: a timeline is a function of the
records on disk, reconstructible while workers are still running (the
``status --watch`` dashboard does exactly that; spans only appear once
closed, so a mid-run worker shows its finished spans plus live events).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.writer import read_telemetry_dir
from repro.utils.timer import format_duration

__all__ = [
    "FleetTimeline",
    "TimelineEvent",
    "TimelineSpan",
    "WorkerTimeline",
    "fleet_timeline",
    "format_fleet_timeline",
]

#: Span names whose duration counts as *busy* (executing science).
_BUSY_SPANS = ("worker.run",)

#: Timeline bar glyphs, by busy fraction of the bin (empty → full).
_BAR_GLYPHS = " .:=#"


@dataclass(frozen=True)
class TimelineSpan:
    """One closed span, as read back from a stream."""

    worker: str
    name: str
    start: float
    end: float
    ok: bool
    attrs: Dict[str, Any]

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass(frozen=True)
class TimelineEvent:
    """One point event, as read back from a stream."""

    worker: str
    name: str
    at: float
    attrs: Dict[str, Any]


@dataclass(frozen=True)
class WorkerTimeline:
    """Everything one worker label reported, reduced to a timeline."""

    worker: str
    spans: Tuple[TimelineSpan, ...]
    events: Tuple[TimelineEvent, ...]

    @property
    def start(self) -> float:
        """First observation (span start or event), 0.0 when empty."""
        times = [span.start for span in self.spans]
        times += [event.at for event in self.events]
        return min(times) if times else 0.0

    @property
    def end(self) -> float:
        """Last observation (span end or event), 0.0 when empty."""
        times = [span.end for span in self.spans]
        times += [event.at for event in self.events]
        return max(times) if times else 0.0

    @property
    def run_spans(self) -> Tuple[TimelineSpan, ...]:
        """The execution attempts (``worker.run``), in start order."""
        return tuple(span for span in self.spans if span.name in _BUSY_SPANS)

    @property
    def busy_seconds(self) -> float:
        """Wall-clock spent inside run spans (attempts do not overlap)."""
        return sum(span.seconds for span in self.run_spans)

    def span_seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def count_events(self, name: str) -> int:
        return sum(1 for event in self.events if event.name == name)

    def busy_fractions(self, start: float, end: float, bins: int) -> List[float]:
        """Busy fraction of each of ``bins`` equal slots across [start, end]."""
        fractions = [0.0] * bins
        width = (end - start) / bins if end > start and bins else 0.0
        if width <= 0.0:
            return fractions
        for span in self.run_spans:
            lo = max(0.0, (span.start - start) / width)
            hi = min(float(bins), (span.end - start) / width)
            index = int(lo)
            while index < hi and index < bins:
                overlap = min(index + 1.0, hi) - max(float(index), lo)
                fractions[index] += max(0.0, overlap)
                index += 1
        return [min(1.0, fraction) for fraction in fractions]


@dataclass(frozen=True)
class FleetTimeline:
    """The whole fleet's telemetry, reduced to utilization arithmetic."""

    workers: Tuple[WorkerTimeline, ...]

    @property
    def start(self) -> float:
        return min((w.start for w in self.workers), default=0.0)

    @property
    def end(self) -> float:
        return max((w.end for w in self.workers), default=0.0)

    @property
    def makespan_seconds(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def n_run_spans(self) -> int:
        """Execution attempts across the fleet (== runs, absent retries)."""
        return sum(len(w.run_spans) for w in self.workers)

    @property
    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.workers)

    @property
    def utilization(self) -> float:
        """Mean busy fraction of the fleet over the observed makespan."""
        if not self.workers or self.makespan_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / (len(self.workers) * self.makespan_seconds)

    @property
    def idle_tail_seconds(self) -> float:
        """Summed end-of-sweep idleness: fleet end minus each worker's last
        busy instant — the straggler cost dynamic balancing exists to shrink."""
        tail = 0.0
        for worker in self.workers:
            runs = worker.run_spans
            last_busy = max((span.end for span in runs), default=self.start)
            tail += max(0.0, self.end - last_busy)
        return tail

    @property
    def straggler(self) -> Optional[WorkerTimeline]:
        """The worker whose last run span ends the sweep (None when no runs)."""
        candidates = [w for w in self.workers if w.run_spans]
        if not candidates:
            return None
        return max(candidates, key=lambda w: max(s.end for s in w.run_spans))

    @property
    def critical_span(self) -> Optional[TimelineSpan]:
        """The single longest run span — the lower bound on any makespan."""
        spans = [span for w in self.workers for span in w.run_spans]
        return max(spans, key=lambda span: span.seconds) if spans else None


def fleet_timeline(directory: Union[str, Path]) -> FleetTimeline:
    """Reconstruct the fleet from the telemetry streams under ``directory``.

    Records are grouped by their ``worker`` label — not by stream file, so
    an in-process fleet (threaded workers, the chaos drain sharing the
    adversary's stream) reconstructs the same way a subprocess fleet does.
    Unlabelled records group under ``"<unknown>"``.
    """
    spans: Dict[str, List[TimelineSpan]] = {}
    events: Dict[str, List[TimelineEvent]] = {}
    # Timelines are a span/event reduction: the kinds= filter keeps a
    # metric-heavy stream (resource samplers emit continuously) from being
    # materialised just to be discarded here.
    for record in read_telemetry_dir(directory, kinds=("span", "event")):
        worker = record.get("worker") or "<unknown>"
        attrs = record.get("attrs")
        attrs = attrs if isinstance(attrs, dict) else {}
        if record.get("kind") == "span":
            spans.setdefault(worker, []).append(
                TimelineSpan(
                    worker=worker,
                    name=str(record.get("name", "")),
                    start=float(record.get("start", 0.0)),
                    end=float(record.get("end", 0.0)),
                    ok=bool(record.get("ok", False)),
                    attrs=attrs,
                )
            )
        elif record.get("kind") == "event":
            events.setdefault(worker, []).append(
                TimelineEvent(
                    worker=worker,
                    name=str(record.get("name", "")),
                    at=float(record.get("at", 0.0)),
                    attrs=attrs,
                )
            )
    workers = tuple(
        WorkerTimeline(
            worker=worker,
            spans=tuple(spans.get(worker, ())),
            events=tuple(events.get(worker, ())),
        )
        for worker in sorted(set(spans) | set(events))
    )
    return FleetTimeline(workers=workers)


def _bar(fractions: Sequence[float]) -> str:
    glyphs = []
    for fraction in fractions:
        index = min(len(_BAR_GLYPHS) - 1, int(fraction * (len(_BAR_GLYPHS) - 1) + 0.5))
        glyphs.append(_BAR_GLYPHS[index])
    return "".join(glyphs)


def format_fleet_timeline(fleet: FleetTimeline, bins: int = 40) -> str:
    """Render the paper-style fleet report (the ``report`` subcommand).

    The first line is the grep-stable summary; then the per-worker
    utilization table, busy-timeline bars over the fleet makespan, and the
    critical-path/straggler postscript.
    """
    header = (
        f"Fleet telemetry: {len(fleet.workers)} worker(s), "
        f"{fleet.n_run_spans} run span(s), "
        f"utilization {100.0 * fleet.utilization:.0f}%, "
        f"makespan {format_duration(fleet.makespan_seconds)}"
    )
    if not fleet.workers:
        return header
    lines = [header, ""]
    name_width = max(6, max(len(w.worker) for w in fleet.workers))
    lines.append(
        f"  {'worker':<{name_width}} {'runs':>4} {'busy':>9} {'util%':>6} "
        f"{'ckpt':>7} {'publish':>7} {'steals':>6} {'retries':>7} {'faults':>6}"
    )
    makespan = fleet.makespan_seconds
    for worker in fleet.workers:
        utilization = (
            100.0 * worker.busy_seconds / makespan if makespan > 0.0 else 0.0
        )
        lines.append(
            f"  {worker.worker:<{name_width}} "
            f"{len(worker.run_spans):>4} "
            f"{worker.busy_seconds:>8.2f}s "
            f"{utilization:>5.0f}% "
            f"{worker.span_seconds('worker.checkpoint'):>6.2f}s "
            f"{worker.span_seconds('worker.publish'):>6.2f}s "
            f"{worker.count_events('lease.steal'):>6} "
            f"{worker.count_events('retry'):>7} "
            f"{worker.count_events('fault'):>6}"
        )
    if makespan > 0.0:
        lines.append("")
        lines.append(
            f"  busy timeline ({bins} bins × "
            f"{format_duration(makespan / bins)} each):"
        )
        for worker in fleet.workers:
            bar = _bar(worker.busy_fractions(fleet.start, fleet.end, bins))
            lines.append(f"  {worker.worker:<{name_width}} |{bar}|")
    lines.append("")
    lines.append(
        f"  idle tail: {format_duration(fleet.idle_tail_seconds)} summed "
        "across workers"
    )
    critical = fleet.critical_span
    if critical is not None:
        run_id = critical.attrs.get("run", "?")
        lines.append(
            f"  critical run: {run_id} ({format_duration(critical.seconds)} "
            f"on {critical.worker})"
        )
    straggler = fleet.straggler
    if straggler is not None:
        last_end = max(span.end for span in straggler.run_spans)
        lines.append(
            f"  straggler: {straggler.worker} (last run span ends "
            f"{format_duration(max(0.0, fleet.end - last_end))} before "
            "the fleet's last observation)"
        )
    return "\n".join(lines)
