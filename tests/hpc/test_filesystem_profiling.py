"""Tests for the filesystem cost model, the profiler and the platform facade."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.hpc.filesystem import SANDBOX_SETUP_SECONDS, read_time
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ExecutionProfiler, ResourceInterval
from repro.hpc.resources import amarel_platform


class TestSharedFilesystem:
    """A GPFS-like scratch: 2 GB/s streaming reads, 20 ms per metadata op."""

    def test_read_time_scales_with_volume(self):
        assert read_time(4.0, files=0) == pytest.approx(2.0)
        assert read_time(8.0, files=0) == pytest.approx(4.0)

    def test_metadata_latency_added_per_file(self):
        base = read_time(0.0, files=0)
        with_files = read_time(0.0, files=5)
        assert with_files - base == pytest.approx(0.1)

    def test_read_time_is_streaming_plus_metadata(self):
        assert read_time(2.0, files=3) == pytest.approx(2.0 / 2.0 + 3 * 0.02)
        assert read_time(2.0) == pytest.approx(2.0 / 2.0 + 0.02)  # one file by default

    def test_sandbox_setup_time(self):
        # Six small files (scripts, staging links), one metadata op each.
        assert SANDBOX_SETUP_SECONDS == pytest.approx(0.12)

    def test_negative_volume_rejected(self):
        with pytest.raises(ConfigurationError):
            read_time(-1.0)
        with pytest.raises(ConfigurationError):
            read_time(1.0, files=-1)


def _interval(task: str, start: float, end: float, cores=(0,), gpus=()):
    return ResourceInterval(
        task_id=task, node="amarel-gpu-node-000",
        cpu_core_ids=tuple(cores), gpu_ids=tuple(gpus), start=start, end=end,
    )


def _full_scan(rows, kind, window, total):
    """Utilization over ``window`` from every row: the scan the cursor shortens."""
    start, end = window
    duration = end - start
    if duration <= 0:
        return 0.0
    busy = 0.0
    for row in rows:
        overlap = min(row.end, end) - max(row.start, start)
        if overlap <= 0:
            continue
        busy += overlap * len(row.cpu_core_ids if kind == "cpu" else row.gpu_ids)
    return busy / (duration * total)


#: Rows in end order: each ``(gap, length, cores, gpus)`` ends ``gap`` after
#: the previous row (0 gives ties) and starts ``length`` before its end.
_rows_strategy = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0 / 3.0, 7.25, 600.0]),
        st.floats(min_value=0.0, max_value=2000.0),
        st.integers(min_value=0, max_value=28),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=40,
)


class TestExecutionProfiler:
    def setup_method(self):
        self.profiler = ExecutionProfiler(amarel_platform(1))

    def test_empty_profiler_raises_on_span(self):
        with pytest.raises(SimulationError):
            self.profiler.span()

    def test_interval_validation(self):
        with pytest.raises(SimulationError, match="'t' ends before it starts"):
            self.profiler.record_resource_interval(_interval("t", 5.0, 1.0))
        assert self.profiler.resource_intervals == []

    def test_makespan_and_busy_seconds(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0, 1)))
        self.profiler.record_resource_interval(_interval("b", 5.0, 15.0, cores=(2,), gpus=(0,)))
        assert self.profiler.makespan() == pytest.approx(15.0)
        assert self.profiler.busy_core_seconds() == pytest.approx(2 * 10 + 10)
        assert self.profiler.busy_gpu_seconds() == pytest.approx(10.0)

    def test_average_utilization(self):
        # 14 cores busy for the entire window of 10 s -> 50 % CPU.
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=tuple(range(14))))
        assert self.profiler.cpu_utilization() == pytest.approx(0.5)
        assert self.profiler.gpu_utilization() == 0.0

    def test_utilization_with_window(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0,)))
        value = self.profiler.cpu_utilization(window=(0.0, 20.0))
        assert value == pytest.approx(10.0 / (20.0 * 28))

    def test_timeline_shape_and_bounds(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 50.0, cores=tuple(range(28))))
        centers, series = self.profiler.utilization_timeline("cpu", n_bins=10)
        assert centers.shape == (10,)
        assert series.shape == (10,)
        assert np.all(series <= 1.0 + 1e-9)
        assert np.all(series >= 0.0)
        assert series.mean() == pytest.approx(1.0, rel=1e-6)

    def test_gpu_timeline_counts_only_gpus(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0,), gpus=(0, 1)))
        _, series = self.profiler.utilization_timeline("gpu", n_bins=5)
        assert series.mean() == pytest.approx(0.5, rel=1e-6)

    def test_timeline_stacks_overlapping_intervals(self):
        # Two one-core tasks overlap on [5, 10): the middle bin is twice as busy.
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0,)))
        self.profiler.record_resource_interval(_interval("b", 5.0, 15.0, cores=(1,)))
        centers, series = self.profiler.utilization_timeline("cpu", n_bins=3)
        assert centers == pytest.approx([2.5, 7.5, 12.5])
        assert series == pytest.approx([1 / 28, 2 / 28, 1 / 28])

    def test_timeline_rejects_zero_bins_and_an_instantaneous_trace(self):
        self.profiler.record_resource_interval(_interval("a", 3.0, 3.0))
        with pytest.raises(SimulationError, match="n_bins"):
            self.profiler.utilization_timeline("cpu", n_bins=0)
        with pytest.raises(SimulationError, match="empty profiling window"):
            self.profiler.utilization_timeline("cpu")

    def test_utilization_over_an_empty_window_is_zero(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0))
        assert self.profiler.cpu_utilization(window=(3.0, 3.0)) == 0.0

    def test_a_row_ending_before_the_previous_one_is_refused(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0))
        # An equal end is in order.
        self.profiler.record_resource_interval(_interval("b", 2.0, 10.0))
        with pytest.raises(
            SimulationError, match="'c' ends at 9.5, before the previously recorded one"
        ):
            self.profiler.record_resource_interval(_interval("c", 1.0, 9.5))
        assert [row.task_id for row in self.profiler.resource_intervals] == ["a", "b"]

    @given(_rows_strategy, st.data())
    @settings(max_examples=150, deadline=None)
    def test_windowed_utilization_equals_a_full_scan(self, shapes, data):
        profiler = ExecutionProfiler(amarel_platform(1))
        rows, end = [], 0.0
        for index, (gap, length, cores, gpus) in enumerate(shapes):
            end += gap
            rows.append(
                _interval(
                    f"t{index}", max(0.0, end - length), end,
                    cores=range(cores), gpus=range(gpus),
                )
            )
            profiler.record_resource_interval(rows[-1])
        points = sorted({0.0, end} | {row.start for row in rows} | {row.end for row in rows})
        for _ in range(5):
            # Window edges on row edges (ties) or anywhere up to past the last end.
            start = data.draw(
                st.sampled_from(points) | st.floats(min_value=0.0, max_value=end + 10.0)
            )
            stop = data.draw(
                st.sampled_from(points) | st.floats(min_value=0.0, max_value=end + 10.0)
            )
            window = (start, stop)
            assert profiler.cpu_utilization(window=window) == _full_scan(rows, "cpu", window, 28)
            assert profiler.gpu_utilization(window=window) == _full_scan(rows, "gpu", window, 4)

    def test_phase_totals(self):
        self.profiler.record_phase("exec_setup", 0.0, 2.0)
        self.profiler.record_phase("running", 2.0, 12.0)
        self.profiler.record_phase("running", 5.0, 10.0)
        totals = self.profiler.phase_totals()
        assert totals == {"exec_setup": 2.0, "running": 15.0}
        selected = self.profiler.phase_totals(["bootstrap", "running"])
        assert selected == {"bootstrap": 0.0, "running": 15.0}

    def test_gpu_busy_seconds(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 8.0, gpus=(1,)))
        self.profiler.record_resource_interval(_interval("b", 8.0, 10.0, cores=(0, 1)))
        busy = self.profiler.gpu_busy_seconds()
        assert busy == {("amarel-gpu-node-000", 1): pytest.approx(8.0)}

    def test_phase_interval_validation(self):
        with pytest.raises(SimulationError, match="'running' ends before it starts"):
            self.profiler.record_phase("running", 3.0, 1.0)
        assert self.profiler.phase_totals() == {}


class TestComputePlatform:
    def test_defaults_to_amarel(self):
        platform = ComputePlatform()
        assert platform.spec.total_cpu_cores == 28
        assert platform.spec.total_gpus == 4
