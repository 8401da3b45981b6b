"""Tests for resource specs and the node allocator."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    AllocationError,
    ConfigurationError,
    InsufficientResourcesError,
)
from repro.hpc.allocation import NodeAllocator
from repro.hpc.resources import (
    AMAREL_NODE,
    NodeSpec,
    PlatformSpec,
    ResourceRequest,
    amarel_platform,
)


class TestResourceRequest:
    def test_defaults(self):
        request = ResourceRequest()
        assert request.cpu_cores == 1
        assert request.gpus == 0

    def test_rejects_zero_everything(self):
        with pytest.raises(ConfigurationError):
            ResourceRequest(cpu_cores=0, gpus=0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ResourceRequest(cpu_cores=-1)

    @pytest.mark.parametrize("memory_gb", [float("nan"), float("inf")])
    def test_rejects_non_finite_memory(self, memory_gb):
        # A NaN request would fail only at placement, as "can never be placed".
        with pytest.raises(ConfigurationError, match="finite"):
            ResourceRequest(cpu_cores=1, memory_gb=memory_gb)


class TestSpecs:
    def test_amarel_node_matches_paper(self):
        assert AMAREL_NODE.cpu_cores == 28
        assert AMAREL_NODE.gpus == 4
        assert AMAREL_NODE.memory_gb == 128.0
        assert AMAREL_NODE.gpu_memory_gb == 12.0

    def test_amarel_platform_totals(self):
        spec = amarel_platform(2)
        assert spec.total_cpu_cores == 56
        assert spec.total_gpus == 8

    def test_amarel_platform_requires_positive_nodes(self):
        with pytest.raises(ConfigurationError):
            amarel_platform(0)

    def test_node_can_ever_fit(self):
        assert AMAREL_NODE.can_ever_fit(ResourceRequest(cpu_cores=28, gpus=4))
        assert not AMAREL_NODE.can_ever_fit(ResourceRequest(cpu_cores=29))

    def test_node_validation(self):
        with pytest.raises(ConfigurationError, match="at least 1 core"):
            NodeSpec(name="n", cpu_cores=0, gpus=0, memory_gb=8.0)
        with pytest.raises(ConfigurationError, match="invalid node spec"):
            NodeSpec(name="n", cpu_cores=4, gpus=-1, memory_gb=8.0)
        with pytest.raises(ConfigurationError, match="invalid node spec"):
            NodeSpec(name="n", cpu_cores=4, gpus=0, memory_gb=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_gb", float("nan")),
            ("memory_gb", float("inf")),
            ("gpu_memory_gb", float("nan")),
            ("gpu_memory_gb", float("inf")),
            ("gpu_memory_gb", float("-inf")),
        ],
    )
    def test_node_rejects_non_finite_memory(self, field, value):
        # A node with NaN memory_gb would fit no request at all.
        fields = dict(name="n", cpu_cores=4, gpus=1, memory_gb=8.0)
        fields[field] = value
        with pytest.raises(ConfigurationError):
            NodeSpec(**fields)

    def test_platform_rejects_duplicate_node_names(self):
        node = NodeSpec(name="n", cpu_cores=4, gpus=0, memory_gb=8.0)
        with pytest.raises(ConfigurationError):
            PlatformSpec(name="p", nodes=(node, node))

    def test_platform_needs_nodes(self):
        with pytest.raises(ConfigurationError):
            PlatformSpec(name="p", nodes=())


class TestNodeAllocator:
    def setup_method(self):
        self.allocator = NodeAllocator(amarel_platform(1))

    def test_initial_capacity(self):
        assert self.allocator.free_cores() == 28
        assert self.allocator.free_gpus() == 4
        assert self.allocator.busy_cores() == 0

    def test_allocate_reduces_free(self):
        self.allocator.allocate(ResourceRequest(cpu_cores=8, gpus=1, memory_gb=16))
        assert self.allocator.free_cores() == 20
        assert self.allocator.free_gpus() == 3
        assert self.allocator.free_memory_gb() == pytest.approx(112.0)

    def test_release_restores_capacity(self):
        allocation = self.allocator.allocate(ResourceRequest(cpu_cores=8, gpus=2))
        self.allocator.release(allocation)
        assert self.allocator.free_cores() == 28
        assert self.allocator.free_gpus() == 4

    def test_device_ids_are_disjoint_across_live_allocations(self):
        a = self.allocator.allocate(ResourceRequest(cpu_cores=4, gpus=1))
        b = self.allocator.allocate(ResourceRequest(cpu_cores=4, gpus=1))
        assert not set(a.cpu_core_ids) & set(b.cpu_core_ids)
        assert not set(a.gpu_ids) & set(b.gpu_ids)

    def test_impossible_request_raises_insufficient(self):
        with pytest.raises(InsufficientResourcesError):
            self.allocator.allocate(ResourceRequest(cpu_cores=64))

    def test_temporarily_unavailable_raises_allocation_error(self):
        self.allocator.allocate(ResourceRequest(cpu_cores=28))
        with pytest.raises(AllocationError):
            self.allocator.allocate(ResourceRequest(cpu_cores=1))

    def test_impossible_request_raises_insufficient_on_a_full_platform(self):
        self.allocator.allocate(ResourceRequest(cpu_cores=28))
        with pytest.raises(InsufficientResourcesError):
            self.allocator.allocate(ResourceRequest(cpu_cores=64))

    def test_memory_tolerance_never_exceeds_the_node(self):
        # Free memory may sit a rounding error below a request, but a node
        # never takes more memory than it has.
        request = ResourceRequest(cpu_cores=1, memory_gb=AMAREL_NODE.memory_gb + 5e-10)
        assert self.allocator.try_allocate(request) is None
        with pytest.raises(InsufficientResourcesError):
            self.allocator.allocate(request)

    def test_double_release_raises(self):
        allocation = self.allocator.allocate(ResourceRequest(cpu_cores=1))
        self.allocator.release(allocation)
        with pytest.raises(AllocationError):
            self.allocator.release(allocation)

    def test_try_allocate_tracks_state(self):
        request = ResourceRequest(cpu_cores=28)
        first = self.allocator.try_allocate(request)
        assert first is not None and first.cpu_cores == 28
        assert self.allocator.try_allocate(request) is None
        self.allocator.release(first)
        assert self.allocator.try_allocate(request) is not None

    def test_try_allocate_that_fits_nowhere_changes_nothing(self):
        allocator = NodeAllocator(amarel_platform(2))
        held = [
            allocator.allocate(ResourceRequest(cpu_cores=20, gpus=3, memory_gb=100.0)),
            allocator.allocate(ResourceRequest(cpu_cores=10, gpus=1, memory_gb=0.3)),
        ]

        def state():
            return {
                name: (
                    set(node.free_cores),
                    set(node.free_gpus),
                    node.free_memory_gb,
                    dict(node.allocated_memory_gb),
                )
                for name, node in allocator._nodes.items()
            }

        before = state()
        for request in (
            ResourceRequest(cpu_cores=19),
            ResourceRequest(cpu_cores=1, gpus=4),
            ResourceRequest(cpu_cores=1, memory_gb=127.8),
        ):
            assert allocator.try_allocate(request) is None
            assert state() == before
        # No allocation id was spent on the refused requests.
        following = allocator.try_allocate(ResourceRequest(cpu_cores=1))
        assert following.allocation_id == held[-1].allocation_id + 1

    def test_multi_node_spillover(self):
        allocator = NodeAllocator(amarel_platform(2))
        first = allocator.allocate(ResourceRequest(cpu_cores=28))
        second = allocator.allocate(ResourceRequest(cpu_cores=28))
        assert first.node != second.node
