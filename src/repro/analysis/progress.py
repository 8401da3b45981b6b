"""Sweep-progress and throughput reporting for orchestrated campaigns.

The orchestration coordinator (:mod:`repro.orchestrate.coordinator`) reduces
a work-queue directory to a :class:`QueueProgress`; this module owns the
aggregate arithmetic and the plain-text rendering, keeping the analysis layer
the single home of report formatting (same split as the protocol matrix).

Since the checkpointing refactor the snapshot is **cycle-aware**: each
in-flight run carries the cycle progress its owner's last heartbeat wrote
into the claim, the ETA credits partially-completed runs with their
completed fraction, and durations render as humanized text (``2h 34m 11s``)
via the shared :func:`repro.utils.timer.format_duration` helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.utils.timer import format_duration

__all__ = ["RunInFlight", "QueueProgress", "format_queue_progress"]


@dataclass(frozen=True)
class RunInFlight:
    """One claimed, not-yet-done run as the observer sees it."""

    run_id: str
    worker: str
    #: Seconds since the claim's last heartbeat.
    lease_age: float
    #: Completed cycles as of the claim's last heartbeat (at most
    #: ``lease / 4`` old), once the owner has reported progress.
    cycle: Optional[int] = None
    #: Known total cycles of the run, when its protocol predicts one.
    cycles_total: Optional[int] = None

    @property
    def fraction_done(self) -> Optional[float]:
        """Completed fraction of this run, when cycle progress is known."""
        if self.cycle is None or not self.cycles_total:
            return None
        return min(1.0, self.cycle / self.cycles_total)


@dataclass(frozen=True)
class QueueProgress:
    """A point-in-time snapshot of one work queue."""

    n_runs: int
    n_done: int
    #: Claimed with a live (unexpired) lease, per the observing clock.
    n_running: int
    #: Claimed but lease-expired: candidates for work stealing.
    n_stale: int
    #: Neither done nor claimed.
    n_unclaimed: int
    #: Retry budget exhausted: terminated with a ``failed/`` marker.
    n_failed: int = 0
    #: worker id -> number of done markers it published.
    done_by_worker: Dict[str, int] = field(default_factory=dict)
    #: Runs currently claimed, with owner, lease age and cycle progress.
    running: List[RunInFlight] = field(default_factory=list)
    #: Sum of executed wall_seconds over all done runs.
    done_wall_seconds: float = 0.0
    #: (first, last) completion timestamps over the done markers, if any.
    completion_span: Optional[Tuple[float, float]] = None

    @property
    def fraction_done(self) -> float:
        return self.n_done / self.n_runs if self.n_runs else 0.0

    @property
    def throughput_per_minute(self) -> Optional[float]:
        """Completed runs per minute over the observed completion span."""
        if self.completion_span is None or self.n_done < 2:
            return None
        first, last = self.completion_span
        if last <= first:
            return None
        return 60.0 * (self.n_done - 1) / (last - first)

    @property
    def cycles_in_flight_credit(self) -> float:
        """Fractional runs completed inside in-flight campaigns.

        Sum of each running run's completed fraction, as its lease reports
        it: a worker 7/8 through a long campaign counts as 0.875 of a run
        already done, not zero.
        """
        return sum(
            fraction
            for fraction in (run.fraction_done for run in self.running)
            if fraction is not None
        )

    @property
    def eta_seconds(self) -> Optional[float]:
        """Cycle-aware drain estimate at the observed throughput.

        Failed runs are terminal, and in-flight completed cycles count as
        completed fractions of their runs.
        """
        rate = self.throughput_per_minute
        remaining = (
            self.n_runs - self.n_done - self.n_failed - self.cycles_in_flight_credit
        )
        if rate is None or rate <= 0.0 or remaining <= 0:
            return None
        return 60.0 * remaining / rate


def format_queue_progress(progress: QueueProgress) -> str:
    """Render the snapshot as the ``status`` subcommand's report."""
    lines = [
        f"Sweep progress: {progress.n_done}/{progress.n_runs} runs done "
        f"({100.0 * progress.fraction_done:.0f}%)",
        f"  running (live lease):   {progress.n_running}",
        f"  stale (stealable):      {progress.n_stale}",
        f"  unclaimed:              {progress.n_unclaimed}",
    ]
    if progress.n_failed:
        lines.append(f"  failed (budget spent):  {progress.n_failed}")
    lines.append(
        f"  executed wall time:     {format_duration(progress.done_wall_seconds)}"
    )
    rate = progress.throughput_per_minute
    if rate is not None:
        lines.append(f"  throughput:             {rate:.1f} runs/min")
    eta = progress.eta_seconds
    if eta is not None:
        lines.append(f"  est. time to drain:     {format_duration(eta)}")
    if progress.done_by_worker:
        lines.append("  completed by worker:")
        for worker in sorted(progress.done_by_worker):
            lines.append(f"    {worker:<28} {progress.done_by_worker[worker]}")
    for run in progress.running:
        cycles = ""
        if run.cycle is not None:
            total = f"/{run.cycles_total}" if run.cycles_total else ""
            cycles = f", cycle {run.cycle}{total}"
        lines.append(
            f"  in flight: {run.run_id:<24} {run.worker} "
            f"(lease age {run.lease_age:.1f}s{cycles})"
        )
    return "\n".join(lines)
