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
* :mod:`repro.hpc.scheduler` — placement: FIFO first-fit and backfill, as
  two lookahead windows of one scheduler.
* :mod:`repro.hpc.filesystem` — shared-filesystem staging and I/O cost model.
* :mod:`repro.hpc.platform` — the :class:`ComputePlatform` facade.
* :mod:`repro.hpc.profiling` — execution traces and utilization timelines.

The pilot runtime in :mod:`repro.runtime` drives this platform; nothing in
here knows about pipelines or proteins.
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "EventLoop": "events",
    "NodeSpec": "resources",
    "PlatformSpec": "resources",
    "ResourceRequest": "resources",
    "AMAREL_NODE": "resources",
    "amarel_platform": "resources",
    "Allocation": "allocation",
    "NodeAllocator": "allocation",
    "PlacementScheduler": "scheduler",
    "ComputePlatform": "platform",
    "ExecutionProfiler": "profiling",
    "ResourceInterval": "profiling",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
