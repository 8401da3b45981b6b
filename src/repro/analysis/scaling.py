"""Scaling studies: the same sweep at increasing fleet sizes, reduced.

The paper's scaling argument is a table — fleet size against makespan,
speedup, parallel efficiency and utilization — and this module is the
read-side that produces it.  Each fleet size contributes one
:class:`ScalingPoint`, reconstructed from a measured wall time plus the
:class:`~repro.analysis.timeline.FleetTimeline` of that size's telemetry
directory; :class:`ScalingStudy` anchors speedups on the smallest fleet and
:func:`format_scaling_table` renders the grep-stable report (the
``python -m repro.orchestrate scale`` subcommand prints it, CI greps its
header).

Everything here is arithmetic over already-collected observations: running
the fleets is :func:`repro.orchestrate.scaling.run_scaling_study`'s job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.analysis.timeline import FleetTimeline
from repro.exceptions import ReproError
from repro.utils.timer import format_duration

__all__ = [
    "ScalingPoint",
    "ScalingStudy",
    "build_scaling_study",
    "format_scaling_table",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One fleet size's observed performance."""

    n_workers: int
    #: Harness-measured wall seconds for the whole drain (claim → finalize).
    wall_seconds: float
    #: Mean busy fraction of the fleet over its observed makespan.
    utilization: float
    #: Summed end-of-sweep idleness across workers (straggler cost).
    idle_tail_seconds: float
    #: Wall-clock spent inside run spans, summed over the fleet.
    busy_seconds: float
    #: First-to-last telemetry observation.
    makespan_seconds: float
    #: Execution attempts observed (== runs, absent retries).
    n_run_spans: int

    def as_dict(self) -> Dict[str, Union[int, float]]:
        return {
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "utilization": self.utilization,
            "idle_tail_seconds": self.idle_tail_seconds,
            "busy_seconds": self.busy_seconds,
            "makespan_seconds": self.makespan_seconds,
            "n_run_spans": self.n_run_spans,
        }


@dataclass(frozen=True)
class ScalingStudy:
    """A scaling sweep's points, ordered by fleet size.

    Speedup and efficiency are anchored on the smallest measured fleet
    (usually one worker): ``speedup(p) = wall(smallest) / wall(p)`` and
    ``efficiency(p) = speedup(p) * smallest / p.n_workers``.
    """

    points: Tuple[ScalingPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ReproError("a scaling study needs at least one point")
        sizes = [point.n_workers for point in self.points]
        if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
            raise ReproError(
                f"scaling points must have unique, increasing fleet sizes, "
                f"got {sizes}"
            )

    @property
    def baseline(self) -> ScalingPoint:
        """The smallest measured fleet — the speedup anchor."""
        return self.points[0]

    def point(self, n_workers: int) -> ScalingPoint:
        for candidate in self.points:
            if candidate.n_workers == n_workers:
                return candidate
        raise ReproError(f"no scaling point for {n_workers} worker(s)")

    def speedup(self, point: ScalingPoint) -> float:
        """Wall-clock speedup over the baseline fleet."""
        if point.wall_seconds <= 0.0:
            return 0.0
        return self.baseline.wall_seconds / point.wall_seconds

    def efficiency(self, point: ScalingPoint) -> float:
        """Speedup per added worker, normalised to the baseline size."""
        if point.n_workers <= 0:
            return 0.0
        return self.speedup(point) * self.baseline.n_workers / point.n_workers

    # -- persistence -------------------------------------------------------- #

    def as_dict(self) -> Dict[str, object]:
        return {
            "points": [point.as_dict() for point in self.points],
            "speedups": {
                str(point.n_workers): self.speedup(point) for point in self.points
            },
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the study as JSON (stable key order) and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def build_scaling_study(
    measurements: Iterable[Tuple[int, float, FleetTimeline]],
) -> ScalingStudy:
    """Reduce ``(n_workers, wall_seconds, fleet)`` measurements to a study.

    The fleet timeline supplies the telemetry-derived axes (utilization,
    idle tail, busy time, makespan, attempt count); the harness supplies the
    wall clock it actually observed around the drain.
    """
    points: List[ScalingPoint] = []
    for n_workers, wall_seconds, fleet in measurements:
        points.append(
            ScalingPoint(
                n_workers=n_workers,
                wall_seconds=wall_seconds,
                utilization=fleet.utilization,
                idle_tail_seconds=fleet.idle_tail_seconds,
                busy_seconds=fleet.busy_seconds,
                makespan_seconds=fleet.makespan_seconds,
                n_run_spans=fleet.n_run_spans,
            )
        )
    points.sort(key=lambda point: point.n_workers)
    return ScalingStudy(points=tuple(points))


def format_scaling_table(study: ScalingStudy) -> str:
    """Render the paper-style scaling table.

    The first line is the grep-stable summary (the CI smoke greps
    ``Scaling study:``); then one row per fleet size.
    """
    best = max(study.points, key=study.speedup)
    header = (
        f"Scaling study: {len(study.points)} fleet size(s), "
        f"baseline {study.baseline.n_workers} worker(s) at "
        f"{format_duration(study.baseline.wall_seconds)}, "
        f"best speedup {study.speedup(best):.2f}x at {best.n_workers} worker(s)"
    )
    lines = [header, ""]
    lines.append(
        f"  {'workers':>7} {'wall':>9} {'speedup':>8} {'effcy':>6} "
        f"{'util%':>6} {'idle tail':>10} {'runs':>5}"
    )
    for point in study.points:
        lines.append(
            f"  {point.n_workers:>7} "
            f"{point.wall_seconds:>8.2f}s "
            f"{study.speedup(point):>7.2f}x "
            f"{100.0 * study.efficiency(point):>5.0f}% "
            f"{100.0 * point.utilization:>5.0f}% "
            f"{point.idle_tail_seconds:>9.2f}s "
            f"{point.n_run_spans:>5}"
        )
    return "\n".join(lines)
