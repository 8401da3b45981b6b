"""Tests for agent-side placement: one scheduler, and the policies' windows."""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.exceptions import ConfigurationError, SchedulingError
from repro.hpc.allocation import NodeAllocator
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.hpc.scheduler import SCHEDULER_POLICIES, PlacementScheduler, placement_window


class _Item(NamedTuple):
    """The least a queued item needs: a name and a request."""

    name: str
    request: ResourceRequest


def _queued(name: str, cores: int = 1, gpus: int = 0) -> _Item:
    return _Item(name, ResourceRequest(cpu_cores=cores, gpus=gpus))


def _names(placed):
    return [item.name for item, _ in placed]


@pytest.fixture()
def allocator():
    return NodeAllocator(amarel_platform(1))


class TestFifoScheduler:
    """Window 0: only the head of the queue may start."""

    def test_places_in_arrival_order(self, allocator):
        scheduler = PlacementScheduler(allocator, 0)
        scheduler.submit(_queued("a", cores=4))
        scheduler.submit(_queued("b", cores=4))
        placed = scheduler.try_place()
        assert _names(placed) == ["a", "b"]
        assert scheduler.queue_length == 0

    def test_head_of_line_blocking(self, allocator):
        scheduler = PlacementScheduler(allocator, 0)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("small", cores=1))
        placed = scheduler.try_place()
        # FIFO refuses to skip over the blocked head even though "small" fits.
        assert placed == []
        assert scheduler.queue_length == 2

    def test_rejects_impossible_request(self, allocator):
        scheduler = PlacementScheduler(allocator, 0)
        with pytest.raises(SchedulingError, match="'too-big'"):
            scheduler.submit(_queued("too-big", cores=100))
        # Queued, it would block the head of the line forever.
        assert scheduler.queue_length == 0

    def test_blocked_queue_keeps_arrival_order(self, allocator):
        scheduler = PlacementScheduler(allocator, 0)
        full = allocator.allocate(ResourceRequest(cpu_cores=28))
        scheduler.submit(_queued("a"))
        scheduler.submit(_queued("b"))
        assert scheduler.try_place() == []
        allocator.release(full)
        placed = scheduler.try_place()
        assert _names(placed) == ["a", "b"]


class TestBackfillScheduler:
    """A window past a blocked head lets a later item that fits start."""

    def test_backfills_past_blocked_head(self, allocator):
        scheduler = PlacementScheduler(allocator, 16)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("small", cores=1))
        placed = scheduler.try_place()
        assert _names(placed) == ["small"]
        assert scheduler.queue_length == 1

    def test_window_limits_lookahead(self, allocator):
        scheduler = PlacementScheduler(allocator, 1)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("also-big", cores=3))
        scheduler.submit(_queued("small", cores=1))  # beyond the window
        placed = scheduler.try_place()
        assert placed == []

    def test_window_counts_places_past_the_head(self, allocator):
        scheduler = PlacementScheduler(allocator, 2)
        allocator.allocate(ResourceRequest(cpu_cores=27))
        scheduler.submit(_queued("big", cores=4))
        scheduler.submit(_queued("also-big", cores=3))
        scheduler.submit(_queued("small", cores=1))  # two places past the head
        assert _names(scheduler.try_place()) == ["small"]

    def test_backfilled_item_leaves_the_rest_in_order(self, allocator):
        scheduler = PlacementScheduler(allocator, 16)
        blocker = allocator.allocate(ResourceRequest(cpu_cores=26))
        for name, cores in (("big", 4), ("small", 1), ("also-big", 3), ("tiny", 1)):
            scheduler.submit(_queued(name, cores=cores))
        assert _names(scheduler.try_place()) == ["small", "tiny"]
        allocator.release(blocker)
        assert _names(scheduler.try_place()) == ["big", "also-big"]

    def test_rejects_impossible_request(self, allocator):
        scheduler = PlacementScheduler(allocator, 16)
        with pytest.raises(SchedulingError):
            scheduler.submit(_queued("too-big", cores=100))
        assert scheduler.queue_length == 0

    def test_gpu_requests_respected(self, allocator):
        scheduler = PlacementScheduler(allocator, 16)
        for index in range(6):
            scheduler.submit(_queued(f"gpu{index}", cores=1, gpus=1))
        placed = scheduler.try_place()
        assert len(placed) == 4  # only four GPUs exist
        assert scheduler.queue_length == 2

    def test_places_the_queued_objects_themselves(self, allocator):
        scheduler = PlacementScheduler(allocator, 16)
        item = _queued("a", cores=2)
        scheduler.submit(item)
        ((placed, allocation),) = scheduler.try_place()
        assert placed is item
        assert len(allocation.cpu_core_ids) == 2


class TestPlacementWindow:
    def test_scheduler_refuses_a_negative_window(self, allocator):
        # It would never place even the head of the queue.
        with pytest.raises(ConfigurationError, match="placement window"):
            PlacementScheduler(allocator, -1)

    def test_policy_names(self):
        assert SCHEDULER_POLICIES == ("backfill", "fifo")

    @pytest.mark.parametrize("backfill_window", [0, 1, 16])
    def test_fifo_is_window_zero_whatever_the_backfill_window(self, backfill_window):
        assert placement_window("fifo", backfill_window) == 0

    @pytest.mark.parametrize("backfill_window", [1, 3, 16])
    def test_backfill_takes_its_window(self, backfill_window):
        assert placement_window("backfill", backfill_window) == backfill_window

    @pytest.mark.parametrize("backfill_window", [0, -1])
    def test_backfill_window_below_one_is_refused(self, backfill_window):
        with pytest.raises(ConfigurationError, match="backfill window"):
            placement_window("backfill", backfill_window)

    def test_unknown_policy_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            placement_window("random-policy", 16)
