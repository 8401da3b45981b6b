"""Shared-filesystem cost model.

Two filesystem effects matter for reproducing the paper's computational
results:

* **Sandbox setup** — RADICAL-Pilot creates a per-task sandbox directory and
  launch script before execution ("Exec setup" in Fig 5); its cost depends on
  the shared filesystem's metadata latency.
* **AlphaFold database I/O** — the MSA/feature-construction phase reads large
  sequence databases from shared storage; the paper (citing ParaFold) notes
  this CPU/IO phase dominates AlphaFold's runtime while GPUs sit idle.

:func:`read_time` and :data:`SANDBOX_SETUP_SECONDS` convert byte volumes
and file counts into simulated seconds.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["SANDBOX_SETUP_SECONDS", "read_time"]

#: Streaming read bandwidth (GB/s) that every read gets.
_READ_BANDWIDTH_GB_S = 2.0
#: Cost of one metadata operation (create/stat a file), in seconds.
_METADATA_LATENCY_S = 0.02
#: Small files RADICAL-Pilot creates per task sandbox (scripts, staging links).
_SANDBOX_FILES = 6


def read_time(gigabytes: float, files: int = 1) -> float:
    """Simulated seconds to read ``gigabytes`` across ``files`` files.

    Reads do not contend: each one streams at the full read bandwidth, so a
    read's cost depends only on its volume and file count.
    """
    if gigabytes < 0 or files < 0:
        raise ConfigurationError("negative I/O volume")
    return gigabytes / _READ_BANDWIDTH_GB_S + files * _METADATA_LATENCY_S


#: Simulated seconds to create a task sandbox (scripts + staging links):
#: RADICAL-Pilot creates a handful of small files per task, so the cost is
#: dominated by metadata operations on the shared filesystem.
SANDBOX_SETUP_SECONDS = _SANDBOX_FILES * _METADATA_LATENCY_S
