"""Shared-filesystem cost model.

Two filesystem effects matter for reproducing the paper's computational
results:

* **Sandbox setup** — RADICAL-Pilot creates a per-task sandbox directory and
  launch script before execution ("Exec setup" in Fig 5); its cost depends on
  the shared filesystem's metadata latency.
* **AlphaFold database I/O** — the MSA/feature-construction phase reads large
  sequence databases from shared storage; the paper (citing ParaFold) notes
  this CPU/IO phase dominates AlphaFold's runtime while GPUs sit idle.

:class:`SharedFilesystem` converts byte volumes and file counts into
simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["FilesystemSpec", "SharedFilesystem"]


@dataclass(frozen=True)
class FilesystemSpec:
    """Static description of the shared filesystem.

    Attributes
    ----------
    name:
        Label used in traces.
    read_bandwidth_gb_s:
        Streaming read bandwidth (GB/s) that every read gets.
    metadata_latency_s:
        Cost of one metadata operation (create/stat a file).
    """

    name: str = "gpfs-scratch"
    read_bandwidth_gb_s: float = 2.0
    metadata_latency_s: float = 0.02

    def __post_init__(self) -> None:
        if self.read_bandwidth_gb_s <= 0:
            raise ConfigurationError("filesystem read bandwidth must be positive")
        if self.metadata_latency_s < 0:
            raise ConfigurationError("metadata latency must be non-negative")


class SharedFilesystem:
    """Converts I/O volumes into simulated seconds.

    Reads do not contend: each one streams at the full read bandwidth, so a
    read's cost depends only on its volume and file count.
    """

    def __init__(self, spec: FilesystemSpec | None = None) -> None:
        self._spec = spec or FilesystemSpec()

    @property
    def spec(self) -> FilesystemSpec:
        return self._spec

    def read_time(self, gigabytes: float, files: int = 1) -> float:
        """Simulated seconds to read ``gigabytes`` across ``files`` files."""
        if gigabytes < 0 or files < 0:
            raise ConfigurationError("negative I/O volume")
        return gigabytes / self._spec.read_bandwidth_gb_s + files * self._spec.metadata_latency_s

    def sandbox_setup_time(self, files: int = 6) -> float:
        """Simulated seconds to create a task sandbox (scripts + staging links).

        RADICAL-Pilot creates a handful of small files per task; the cost is
        dominated by metadata operations on the shared filesystem.
        """
        if files < 0:
            raise ConfigurationError("negative file count")
        return files * self._spec.metadata_latency_s
