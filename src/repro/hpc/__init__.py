"""Simulated HPC platform substrate.

The paper executes its workloads on a Rutgers Amarel compute node
(28 CPU cores, 4 NVIDIA Quadro M6000 GPUs, 128 GB RAM) through the
RADICAL-Pilot runtime.  Because no cluster is available to this
reproduction, this subpackage provides a faithful *discrete-event* model of
such a platform:

* :mod:`repro.hpc.events` — the simulation clock and event loop.
* :mod:`repro.hpc.resources` — node and platform descriptions, resource
  requests (cores / GPUs / memory).
* :mod:`repro.hpc.allocation` — per-node slot bookkeeping.
* :mod:`repro.hpc.scheduler` — placement policies (FIFO first-fit, backfill).
* :mod:`repro.hpc.filesystem` — shared-filesystem staging and I/O cost model.
* :mod:`repro.hpc.platform` — the :class:`ComputePlatform` facade.
* :mod:`repro.hpc.profiling` — execution traces and utilization timelines.

The pilot runtime in :mod:`repro.runtime` drives this platform; nothing in
here knows about pipelines or proteins.
"""

from repro.hpc.events import EventLoop
from repro.hpc.resources import (
    AMAREL_NODE,
    NodeSpec,
    PlatformSpec,
    ResourceRequest,
    amarel_platform,
)
from repro.hpc.allocation import Allocation, NodeAllocator
from repro.hpc.scheduler import (
    BackfillScheduler,
    FifoScheduler,
    PlacementScheduler,
    make_scheduler,
)
from repro.hpc.filesystem import SharedFilesystem, FilesystemSpec
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ExecutionProfiler, ResourceInterval, PhaseInterval

__all__ = [
    "EventLoop",
    "NodeSpec",
    "PlatformSpec",
    "ResourceRequest",
    "AMAREL_NODE",
    "amarel_platform",
    "Allocation",
    "NodeAllocator",
    "PlacementScheduler",
    "FifoScheduler",
    "BackfillScheduler",
    "make_scheduler",
    "SharedFilesystem",
    "FilesystemSpec",
    "ComputePlatform",
    "ExecutionProfiler",
    "ResourceInterval",
    "PhaseInterval",
]
