"""Resource descriptions: nodes, platforms, and resource requests.

The evaluation in the paper ran on a single Rutgers Amarel node with 28 CPU
cores, 4 NVIDIA Quadro M6000 GPUs (12 GB each) and 128 GB of host RAM.  The
:data:`AMAREL_NODE` spec and :func:`amarel_platform` factory reproduce that
configuration; generic specs allow scaling experiments beyond the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "ResourceRequest",
    "NodeSpec",
    "PlatformSpec",
    "AMAREL_NODE",
    "amarel_platform",
]


@dataclass(frozen=True)
class ResourceRequest:
    """Resources required by one task.

    Attributes
    ----------
    cpu_cores:
        Number of CPU cores the task occupies for its whole duration.
    gpus:
        Number of GPUs occupied for the whole duration (0 for CPU-only tasks).
    memory_gb:
        Host memory footprint in GB.
    """

    cpu_cores: int = 1
    gpus: int = 0
    memory_gb: float = 1.0

    def __post_init__(self) -> None:
        memory_ok = math.isfinite(self.memory_gb) and self.memory_gb >= 0
        if self.cpu_cores < 0 or self.gpus < 0 or not memory_ok:
            raise ConfigurationError(
                f"resource request must be non-negative and finite, got {self}"
            )
        if self.cpu_cores == 0 and self.gpus == 0:
            raise ConfigurationError("a task must request at least one core or GPU")


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node."""

    name: str
    cpu_cores: int
    gpus: int
    memory_gb: float
    gpu_memory_gb: float = 12.0

    def __post_init__(self) -> None:
        if self.cpu_cores <= 0:
            raise ConfigurationError(f"node {self.name!r} must have at least 1 core")
        memory_ok = math.isfinite(self.memory_gb) and self.memory_gb > 0
        if self.gpus < 0 or not memory_ok or not math.isfinite(self.gpu_memory_gb):
            raise ConfigurationError(f"invalid node spec: {self}")

    def can_ever_fit(self, request: ResourceRequest) -> bool:
        """Whether this node could satisfy ``request`` when completely idle."""
        return (
            request.cpu_cores <= self.cpu_cores
            and request.gpus <= self.gpus
            and request.memory_gb <= self.memory_gb
        )


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of a platform (a homogeneous or mixed set of nodes)."""

    name: str
    nodes: Tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("a platform needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names in platform {self.name!r}")

    @property
    def total_cpu_cores(self) -> int:
        return sum(node.cpu_cores for node in self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(node.gpus for node in self.nodes)

    def can_ever_fit(self, request: ResourceRequest) -> bool:
        """Whether any single node could satisfy ``request`` when idle."""
        for node in self.nodes:
            if node.can_ever_fit(request):
                return True
        return False


#: The Amarel node used in the paper's evaluation (Section III).
AMAREL_NODE = NodeSpec(
    name="amarel-gpu-node",
    cpu_cores=28,
    gpus=4,
    memory_gb=128.0,
    gpu_memory_gb=12.0,
)


def amarel_platform(n_nodes: int = 1) -> PlatformSpec:
    """Platform made of ``n_nodes`` Amarel-like GPU nodes (paper uses 1)."""
    if n_nodes < 1:
        raise ConfigurationError("n_nodes must be >= 1")
    nodes: List[NodeSpec] = []
    for index in range(n_nodes):
        nodes.append(
            NodeSpec(
                name=f"{AMAREL_NODE.name}-{index:03d}",
                cpu_cores=AMAREL_NODE.cpu_cores,
                gpus=AMAREL_NODE.gpus,
                memory_gb=AMAREL_NODE.memory_gb,
                gpu_memory_gb=AMAREL_NODE.gpu_memory_gb,
            )
        )
    return PlatformSpec(name=f"amarel-x{n_nodes}", nodes=tuple(nodes))
