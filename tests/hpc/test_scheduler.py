"""Tests for the agent-side placement schedulers."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SchedulingError
from repro.hpc.allocation import NodeAllocator
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.hpc.scheduler import (
    BackfillScheduler,
    FifoScheduler,
    QueuedRequest,
    make_scheduler,
)


def _queued(uid: str, cores: int = 1, gpus: int = 0) -> QueuedRequest:
    return QueuedRequest(
        request_id=uid,
        request=ResourceRequest(cpu_cores=cores, gpus=gpus),
    )


@pytest.fixture()
def allocator():
    return NodeAllocator(amarel_platform(1))


class TestFifoScheduler:
    def test_places_in_arrival_order(self, allocator):
        scheduler = FifoScheduler(allocator)
        scheduler.submit(_queued("a", cores=4))
        scheduler.submit(_queued("b", cores=4))
        placed = scheduler.try_place()
        assert [item.request_id for item, _ in placed] == ["a", "b"]
        assert scheduler.queue_length == 0

    def test_head_of_line_blocking(self, allocator):
        scheduler = FifoScheduler(allocator)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("small", cores=1))
        placed = scheduler.try_place()
        # FIFO refuses to skip over the blocked head even though "small" fits.
        assert placed == []
        assert scheduler.queue_length == 2

    def test_rejects_impossible_request(self, allocator):
        scheduler = FifoScheduler(allocator)
        with pytest.raises(SchedulingError):
            scheduler.submit(_queued("too-big", cores=100))
        # Queued, it would block the head of the line forever.
        assert scheduler.queue_length == 0

    def test_blocked_queue_keeps_arrival_order(self, allocator):
        scheduler = FifoScheduler(allocator)
        full = allocator.allocate(ResourceRequest(cpu_cores=28))
        scheduler.submit(_queued("a"))
        scheduler.submit(_queued("b"))
        assert scheduler.try_place() == []
        allocator.release(full)
        placed = scheduler.try_place()
        assert [item.request_id for item, _ in placed] == ["a", "b"]


class TestBackfillScheduler:
    def test_backfills_past_blocked_head(self, allocator):
        scheduler = BackfillScheduler(allocator)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("small", cores=1))
        placed = scheduler.try_place()
        assert [item.request_id for item, _ in placed] == ["small"]
        assert scheduler.queue_length == 1

    def test_window_limits_lookahead(self, allocator):
        scheduler = BackfillScheduler(allocator, window=1)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("also-big", cores=3))
        scheduler.submit(_queued("small", cores=1))  # beyond the window
        placed = scheduler.try_place()
        assert placed == []

    def test_rejects_impossible_request(self, allocator):
        scheduler = BackfillScheduler(allocator)
        with pytest.raises(SchedulingError):
            scheduler.submit(_queued("too-big", cores=100))
        assert scheduler.queue_length == 0

    def test_invalid_window(self, allocator):
        with pytest.raises(ConfigurationError):
            BackfillScheduler(allocator, window=0)

    def test_gpu_requests_respected(self, allocator):
        scheduler = BackfillScheduler(allocator)
        for index in range(6):
            scheduler.submit(_queued(f"gpu{index}", cores=1, gpus=1))
        placed = scheduler.try_place()
        assert len(placed) == 4  # only four GPUs exist
        assert scheduler.queue_length == 2


class TestMakeScheduler:
    def test_factory_builds_fifo(self, allocator):
        assert isinstance(make_scheduler("fifo", allocator), FifoScheduler)

    def test_factory_builds_backfill_with_kwargs(self, allocator):
        scheduler = make_scheduler("backfill", allocator, window=3)
        assert isinstance(scheduler, BackfillScheduler)
        assert scheduler.window == 3

    def test_factory_rejects_unknown_policy(self, allocator):
        with pytest.raises(ConfigurationError):
            make_scheduler("random-policy", allocator)
