"""Per-node slot bookkeeping.

The agent-side scheduler places tasks onto nodes; :class:`NodeAllocator`
tracks which cores, GPUs and how much memory are in use on each node and
enforces that the platform is never oversubscribed.  Individual core and GPU
indices are tracked (not just counts) so the profiler can attribute busy time
to concrete devices, which is what Figs 4 and 5 plot.

A placement is one scan of the nodes in name order
(:meth:`NodeAllocator.try_allocate`), each node tested against its free
device sets and a free-memory figure that is recomputed only when an
allocation is added or released.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.exceptions import AllocationError, InsufficientResourcesError
from repro.hpc.resources import NodeSpec, PlatformSpec, ResourceRequest

__all__ = ["Allocation", "NodeAllocator"]


class Allocation(NamedTuple):
    """A concrete placement of a request on a node.

    Attributes
    ----------
    allocation_id:
        Unique id within the allocator that produced it.
    node:
        Name of the node hosting the allocation.
    cpu_core_ids / gpu_ids:
        The concrete device indices occupied.
    memory_gb:
        Host memory reserved.
    """

    allocation_id: int
    node: str
    cpu_core_ids: Tuple[int, ...]
    gpu_ids: Tuple[int, ...]
    memory_gb: float

    @property
    def cpu_cores(self) -> int:
        return len(self.cpu_core_ids)

    @property
    def gpus(self) -> int:
        return len(self.gpu_ids)


@dataclass
class _NodeState:
    spec: NodeSpec
    free_cores: Set[int] = field(default_factory=set)
    free_gpus: Set[int] = field(default_factory=set)
    #: Memory held per live allocation id.  Free memory is derived from this
    #: rather than kept as a running difference, so an empty node reports
    #: exactly ``spec.memory_gb`` again (no float-accumulation drift).
    allocated_memory_gb: Dict[int, float] = field(default_factory=dict)
    #: ``spec.memory_gb`` minus the ``math.fsum`` of ``allocated_memory_gb``,
    #: recomputed by :meth:`recount_memory` whenever that dict changes.
    #: ``fsum`` rounds correctly, so this is the value a fresh sum would give.
    free_memory_gb: float = field(init=False)

    def __post_init__(self) -> None:
        self.recount_memory()

    @classmethod
    def fresh(cls, spec: NodeSpec) -> "_NodeState":
        return cls(
            spec=spec,
            free_cores=set(range(spec.cpu_cores)),
            free_gpus=set(range(spec.gpus)),
        )

    def recount_memory(self) -> None:
        self.free_memory_gb = self.spec.memory_gb - math.fsum(
            self.allocated_memory_gb.values()
        )

    def fits(self, request: ResourceRequest) -> bool:
        # The float tolerance never admits more memory than the node holds,
        # so a request that fits some node now could ever fit the platform.
        return (
            len(self.free_cores) >= request.cpu_cores
            and len(self.free_gpus) >= request.gpus
            and self.free_memory_gb >= request.memory_gb - 1e-9
            and request.memory_gb <= self.spec.memory_gb
        )


class NodeAllocator:
    """Tracks free/busy devices across all nodes of a platform.

    The allocator is purely a bookkeeping structure: it has no notion of time
    or queueing.  The scheduler decides *when* to try a placement; the
    allocator decides *whether* it fits and *which* devices it occupies.
    """

    def __init__(self, platform: PlatformSpec) -> None:
        self._platform = platform
        self._nodes: Dict[str, _NodeState] = {
            node.name: _NodeState.fresh(node) for node in platform.nodes
        }
        #: Placement scans nodes in name order.
        self._by_name: List[Tuple[str, _NodeState]] = sorted(self._nodes.items())
        self._live: Dict[int, Allocation] = {}
        self._ids = itertools.count(1)

    @property
    def platform(self) -> PlatformSpec:
        return self._platform

    def free_cores(self) -> int:
        """Free core count across the platform."""
        return sum(len(state.free_cores) for state in self._nodes.values())

    def free_gpus(self) -> int:
        """Free GPU count across the platform."""
        return sum(len(state.free_gpus) for state in self._nodes.values())

    def free_memory_gb(self) -> float:
        """Free host memory across the platform."""
        return sum(state.free_memory_gb for state in self._nodes.values())

    def busy_cores(self) -> int:
        return self._platform.total_cpu_cores - self.free_cores()

    def can_ever_fit(self, request: ResourceRequest) -> bool:
        """Whether ``request`` could fit on some node of an *empty* platform."""
        return self._platform.can_ever_fit(request)

    def try_allocate(self, request: ResourceRequest) -> Optional[Allocation]:
        """Place ``request`` on the first node, in name order, that fits it now.

        Devices are assigned lowest-index-first which keeps placements
        deterministic and makes per-device utilization plots stable.
        Returns ``None``, and changes nothing, when no node fits.
        """
        for name, state in self._by_name:
            if not state.fits(request):
                continue
            core_ids = tuple(sorted(state.free_cores)[: request.cpu_cores])
            gpu_ids = tuple(sorted(state.free_gpus)[: request.gpus])
            state.free_cores.difference_update(core_ids)
            state.free_gpus.difference_update(gpu_ids)
            allocation_id = next(self._ids)
            allocation = Allocation(
                allocation_id, name, core_ids, gpu_ids, request.memory_gb
            )
            state.allocated_memory_gb[allocation_id] = request.memory_gb
            state.recount_memory()
            self._live[allocation_id] = allocation
            return allocation
        return None

    def allocate(self, request: ResourceRequest) -> Allocation:
        """Place ``request`` as :meth:`try_allocate` does, or raise.

        Raises
        ------
        InsufficientResourcesError
            If no node could ever satisfy the request (even when idle).
        AllocationError
            If the request fits the platform in principle but not right now.
        """
        allocation = self.try_allocate(request)
        if allocation is not None:
            return allocation
        if not self.can_ever_fit(request):
            raise InsufficientResourcesError(
                f"request {request} exceeds the capacity of every node in "
                f"platform {self._platform.name!r}"
            )
        raise AllocationError(
            f"request {request} does not fit right now "
            f"(free cores={self.free_cores()}, gpus={self.free_gpus()})"
        )

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's devices to the free pool.

        Raises
        ------
        AllocationError
            If the allocation is unknown or was already released.
        """
        stored = self._live.pop(allocation.allocation_id, None)
        if stored is None:
            raise AllocationError(
                f"allocation {allocation.allocation_id} is not live (double release?)"
            )
        state = self._nodes[stored.node]
        if not (
            state.free_cores.isdisjoint(stored.cpu_core_ids)
            and state.free_gpus.isdisjoint(stored.gpu_ids)
        ):
            overlap_cores = state.free_cores.intersection(stored.cpu_core_ids)
            overlap_gpus = state.free_gpus.intersection(stored.gpu_ids)
            raise AllocationError(
                f"allocation {allocation.allocation_id} devices already free: "
                f"cores={sorted(overlap_cores)}, gpus={sorted(overlap_gpus)}"
            )
        state.free_cores.update(stored.cpu_core_ids)
        state.free_gpus.update(stored.gpu_ids)
        if state.allocated_memory_gb.pop(stored.allocation_id, None) is None:
            raise AllocationError(
                f"memory accounting error on node {stored.node!r}: "
                f"allocation {stored.allocation_id} held no memory record"
            )
        state.recount_memory()
