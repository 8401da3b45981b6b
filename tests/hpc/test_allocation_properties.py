"""Property-based tests: the allocator never oversubscribes and always balances."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AllocationError, InsufficientResourcesError
from repro.hpc.allocation import NodeAllocator
from repro.hpc.resources import ResourceRequest, amarel_platform

# A random program of allocate/release operations.  The tuple is filtered
# *before* constructing the request so invalid combinations (no cores and no
# GPUs) never reach the validating constructor.
_request_strategy = (
    st.tuples(
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.5, max_value=160.0),
    )
    .filter(lambda t: t[0] > 0 or t[1] > 0)
    .map(lambda t: ResourceRequest(cpu_cores=t[0], gpus=t[1], memory_gb=t[2]))
)

_ops_strategy = st.lists(
    st.tuples(st.sampled_from(["alloc", "release"]), _request_strategy, st.integers(0, 10)),
    min_size=1,
    max_size=60,
)


@given(_ops_strategy)
@settings(max_examples=100, deadline=None)
def test_allocator_never_oversubscribes(ops):
    allocator = NodeAllocator(amarel_platform(1))
    live = []
    for action, request, index in ops:
        if action == "alloc":
            try:
                live.append(allocator.allocate(request))
            except (AllocationError, InsufficientResourcesError):
                pass
        elif live:
            allocation = live.pop(index % len(live))
            allocator.release(allocation)

        # Invariants: free counts stay within physical bounds and match the
        # sum of live allocations.
        assert 0 <= allocator.free_cores() <= 28
        assert 0 <= allocator.free_gpus() <= 4
        assert allocator.free_memory_gb() >= -1e-6
        busy_cores = sum(a.cpu_cores for a in live)
        busy_gpus = sum(a.gpus for a in live)
        assert allocator.free_cores() == 28 - busy_cores
        assert allocator.free_gpus() == 4 - busy_gpus

    # Releasing everything restores the pristine platform.
    for allocation in live:
        allocator.release(allocation)
    assert allocator.free_cores() == 28
    assert allocator.free_gpus() == 4
    assert allocator.free_memory_gb() == 128.0


@given(st.lists(_request_strategy, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_allocated_device_ids_always_disjoint(requests):
    allocator = NodeAllocator(amarel_platform(1))
    live = []
    for request in requests:
        try:
            live.append(allocator.allocate(request))
        except (AllocationError, InsufficientResourcesError):
            continue
    seen_cores = set()
    seen_gpus = set()
    for allocation in live:
        cores = {(allocation.node, c) for c in allocation.cpu_core_ids}
        gpus = {(allocation.node, g) for g in allocation.gpu_ids}
        assert not cores & seen_cores
        assert not gpus & seen_gpus
        seen_cores |= cores
        seen_gpus |= gpus


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["allocate", "try", "release"]),
            _request_strategy,
            st.integers(0, 10),
        ),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=100, deadline=None)
def test_cached_free_memory_equals_a_fresh_sum(ops):
    """Each node's free memory is the figure a fresh ``fsum`` over its live
    allocations gives, after every allocate, refused request and release."""
    allocator = NodeAllocator(amarel_platform(2))
    live = []
    for action, request, index in ops:
        if action == "release":
            if live:
                allocator.release(live.pop(index % len(live)))
        elif action == "try":
            allocation = allocator.try_allocate(request)
            if allocation is not None:
                live.append(allocation)
        else:
            try:
                live.append(allocator.allocate(request))
            except (AllocationError, InsufficientResourcesError):
                pass
        for name, node in allocator._nodes.items():
            held = [a.memory_gb for a in live if a.node == name]
            assert node.free_memory_gb == node.spec.memory_gb - math.fsum(held)
