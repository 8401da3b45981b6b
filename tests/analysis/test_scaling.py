"""The scaling-study reduction: points, speedups, table, saved JSON."""

from __future__ import annotations

import json

import pytest

from repro.analysis.scaling import (
    ScalingPoint,
    ScalingStudy,
    build_scaling_study,
    format_scaling_table,
)
from repro.analysis.timeline import FleetTimeline, TimelineSpan, WorkerTimeline
from repro.exceptions import ReproError


def _fleet(n_workers: int, span_seconds: float) -> FleetTimeline:
    """A synthetic fleet: each worker ran one back-to-back span."""
    workers = tuple(
        WorkerTimeline(
            worker=f"w{index}",
            spans=(
                TimelineSpan(
                    worker=f"w{index}",
                    name="worker.run",
                    start=0.0,
                    end=span_seconds,
                    ok=True,
                    attrs={"run": f"r{index}"},
                ),
            ),
            events=(),
        )
        for index in range(n_workers)
    )
    return FleetTimeline(workers=workers)


@pytest.fixture()
def study() -> ScalingStudy:
    return build_scaling_study(
        [
            (2, 5.0, _fleet(2, 4.0)),
            (1, 10.0, _fleet(1, 9.0)),  # out of order on purpose
            (4, 4.0, _fleet(4, 2.0)),
        ]
    )


class TestStudyArithmetic:
    def test_points_sort_by_fleet_size(self, study):
        assert [point.n_workers for point in study.points] == [1, 2, 4]
        assert study.baseline.n_workers == 1

    def test_speedup_anchors_on_the_smallest_fleet(self, study):
        assert study.speedup(study.baseline) == pytest.approx(1.0)
        assert study.speedup(study.point(2)) == pytest.approx(2.0)
        assert study.speedup(study.point(4)) == pytest.approx(2.5)

    def test_efficiency_normalises_by_size(self, study):
        assert study.efficiency(study.baseline) == pytest.approx(1.0)
        assert study.efficiency(study.point(2)) == pytest.approx(1.0)
        assert study.efficiency(study.point(4)) == pytest.approx(0.625)

    def test_points_carry_the_fleet_reduction(self, study):
        point = study.point(2)
        assert point.utilization == pytest.approx(1.0)
        assert point.busy_seconds == pytest.approx(8.0)
        assert point.n_run_spans == 2

    def test_unknown_size_raises(self, study):
        with pytest.raises(ReproError):
            study.point(3)

    def test_empty_or_duplicated_sizes_are_rejected(self):
        with pytest.raises(ReproError):
            ScalingStudy(points=())
        point = ScalingPoint(
            n_workers=1, wall_seconds=1.0, utilization=1.0,
            idle_tail_seconds=0.0, busy_seconds=1.0, makespan_seconds=1.0,
            n_run_spans=1,
        )
        with pytest.raises(ReproError):
            ScalingStudy(points=(point, point))


class TestPersistence:
    def test_save_writes_as_dict_as_json(self, study, tmp_path):
        path = study.save(tmp_path / "nested" / "scaling.json")
        assert path.is_file()
        assert json.loads(path.read_text(encoding="utf-8")) == study.as_dict()

    def test_as_dict_carries_speedups(self, study):
        payload = study.as_dict()
        assert payload["speedups"]["4"] == pytest.approx(2.5)
        assert len(payload["points"]) == 3


class TestFormat:
    def test_table_carries_the_grep_stable_header(self, study):
        text = format_scaling_table(study)
        first = text.splitlines()[0]
        assert first.startswith("Scaling study: 3 fleet size(s)")
        assert "best speedup 2.50x at 4 worker(s)" in first

    def test_table_renders_one_row_per_size(self, study):
        lines = format_scaling_table(study).splitlines()
        rows = [line for line in lines if line.strip() and line.startswith("  ")]
        # Header row plus one row per fleet size.
        assert len(rows) == 4
        assert "1.00x" in rows[1] and "2.00x" in rows[2] and "2.50x" in rows[3]
