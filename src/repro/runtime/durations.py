"""Task duration models.

The real IMPRESS tasks are ProteinMPNN and AlphaFold2 executions whose
runtimes on the paper's hardware (NVIDIA Quadro M6000, 28-core node, shared
GPFS filesystem) span minutes to hours.  The discrete-event simulation needs
a duration for every task it executes; this module supplies them.

The model captures the structure that drives the paper's computational
results:

* **ProteinMPNN** — a short GPU task whose cost grows with the number of
  sequences requested and the protein length.
* **AlphaFold MSA / feature construction** — a long, CPU- and I/O-bound phase
  (the ParaFold observation cited by the paper): hours of database search
  during which GPUs are idle.
* **AlphaFold inference** — a GPU-bound phase, shorter than the MSA phase.
* **Scoring / ranking / selection / comparison** — cheap CPU tasks.

Each sampled duration gets multiplicative log-normal jitter so repeated runs
are not artificially synchronous, while remaining deterministic under a fixed
seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hpc.filesystem import read_time
from repro.hpc.resources import ResourceRequest
from repro.runtime.task import TaskDescription
from repro.utils.rng import KeyedStreams

__all__ = ["TaskKind", "KindProfile", "DurationModel", "profile_for", "request_for"]


class TaskKind(str, enum.Enum):
    """The kind of a stage task, which names its pipeline stage."""

    MPNN_GENERATE = "mpnn_generate"
    SEQUENCE_RANK = "sequence_rank"
    SEQUENCE_SELECT = "sequence_select"
    AF_MSA = "af_msa"
    AF_INFERENCE = "af_inference"
    SCORING = "scoring"
    COMPARE = "compare"


@dataclass(frozen=True)
class KindProfile:
    """Base cost profile for one task kind.

    Attributes
    ----------
    base_seconds:
        Duration for a reference-size input (one ~100-residue complex,
        10 sequences) before scaling and jitter.
    per_sequence_seconds:
        Additional seconds per generated/evaluated sequence beyond the first.
    per_residue_seconds:
        Additional seconds per residue beyond the 100-residue reference.
    io_gigabytes:
        Shared-filesystem read volume attributed to the task (dominates the
        AlphaFold MSA phase).
    jitter_sigma:
        Log-normal sigma of the multiplicative runtime noise.
    request:
        Default resource request for tasks of this kind.
    """

    base_seconds: float
    per_sequence_seconds: float = 0.0
    per_residue_seconds: float = 0.0
    io_gigabytes: float = 0.0
    jitter_sigma: float = 0.08
    request: ResourceRequest = field(
        default_factory=lambda: ResourceRequest(cpu_cores=1, gpus=0, memory_gb=2.0)
    )

    def __post_init__(self) -> None:
        for name in (
            "base_seconds",
            "per_sequence_seconds",
            "per_residue_seconds",
            "io_gigabytes",
            "jitter_sigma",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )


_REFERENCE_RESIDUES = 100
_REFERENCE_SEQUENCES = 10


#: The per-kind cost table, loosely calibrated to the paper's hardware.
_PROFILES: Dict[TaskKind, KindProfile] = {
    TaskKind.MPNN_GENERATE: KindProfile(
        base_seconds=480.0,
        per_sequence_seconds=25.0,
        per_residue_seconds=1.0,
        jitter_sigma=0.10,
        request=ResourceRequest(cpu_cores=2, gpus=1, memory_gb=8.0),
    ),
    TaskKind.SEQUENCE_RANK: KindProfile(
        base_seconds=20.0,
        per_sequence_seconds=1.0,
        jitter_sigma=0.05,
        request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
    ),
    # Selection compiles the one selected design, however many were generated.
    TaskKind.SEQUENCE_SELECT: KindProfile(
        base_seconds=19.5,
        jitter_sigma=0.05,
        request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
    ),
    TaskKind.AF_MSA: KindProfile(
        base_seconds=3000.0,
        per_residue_seconds=9.0,
        io_gigabytes=60.0,
        jitter_sigma=0.12,
        request=ResourceRequest(cpu_cores=8, gpus=0, memory_gb=48.0),
    ),
    TaskKind.AF_INFERENCE: KindProfile(
        base_seconds=2400.0,
        per_residue_seconds=4.0,
        jitter_sigma=0.10,
        request=ResourceRequest(cpu_cores=2, gpus=1, memory_gb=16.0),
    ),
    TaskKind.SCORING: KindProfile(
        base_seconds=600.0,
        per_residue_seconds=1.5,
        jitter_sigma=0.08,
        request=ResourceRequest(cpu_cores=4, gpus=0, memory_gb=8.0),
    ),
    TaskKind.COMPARE: KindProfile(
        base_seconds=10.0,
        jitter_sigma=0.05,
        request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
    ),
}


#: Each kind's duration terms, by kind value: base seconds, seconds per
#: sequence and per residue past the reference, shared-filesystem read
#: seconds, and jitter sigma.  Built once from :data:`_PROFILES`.
_DURATION_ROWS: Dict[str, Tuple[float, float, float, float, float]] = {
    kind.value: (
        profile.base_seconds,
        profile.per_sequence_seconds,
        profile.per_residue_seconds,
        read_time(profile.io_gigabytes, files=24) if profile.io_gigabytes > 0 else 0.0,
        profile.jitter_sigma,
    )
    for kind, profile in _PROFILES.items()
}


def profile_for(kind: TaskKind | str) -> KindProfile:
    """Return the cost profile of ``kind``.

    ``TaskKind`` is a ``str`` enum, so a member and its value find the same
    entry.

    Raises
    ------
    ConfigurationError
        If ``kind`` is not a :class:`TaskKind`.
    """
    try:
        return _PROFILES[kind]
    except KeyError:
        raise ConfigurationError(f"unknown task kind {kind!r}") from None


def request_for(kind: TaskKind | str) -> ResourceRequest:
    """Default resource request for a task of ``kind``.

    It depends on the kind alone, never on a duration model's seed or
    speedup.
    """
    return profile_for(kind).request


class DurationModel:
    """Maps tasks to simulated execution durations.

    Parameters
    ----------
    seed:
        Root seed for the per-task jitter streams.  Jitter is keyed by the
        task name, so it does not depend on execution order.
    speedup:
        Global divisor applied to all durations.  Benchmarks use large
        speedups so that simulating a multi-hour campaign costs milliseconds
        of real time without changing any relative quantity.

    One instance per campaign, not shared across threads: every duration
    draws its jitter from the one reused generator of
    :class:`~repro.utils.rng.KeyedStreams`.
    """

    def __init__(self, seed: int = 0, speedup: float = 1.0) -> None:
        if not (math.isfinite(speedup) and speedup > 0):
            raise ConfigurationError(f"speedup must be finite and positive, got {speedup!r}")
        self._jitter = KeyedStreams(seed, "duration")
        self._speedup = float(speedup)

    @property
    def speedup(self) -> float:
        return self._speedup

    def duration(self, description: TaskDescription) -> float:
        """Simulated seconds the task will occupy its allocation.

        The duration combines the kind's base cost, scaling in the number of
        sequences (``metadata["n_sequences"]``) and residues
        (``metadata["n_residues"]``), shared-filesystem read time for
        I/O-heavy kinds, and deterministic per-task jitter.
        """
        try:
            base, per_sequence, per_residue, io_seconds, sigma = _DURATION_ROWS[
                description.kind
            ]
        except KeyError:
            raise ConfigurationError(f"unknown task kind {description.kind!r}") from None
        metadata = description.metadata

        # The terms are added in this order; a zero term is skipped, since
        # adding 0.0 to the positive running total leaves it unchanged.
        seconds = base
        if per_sequence:
            n_sequences = int(metadata.get("n_sequences", _REFERENCE_SEQUENCES))
            seconds += per_sequence * max(0, n_sequences - 1)
        if per_residue:
            n_residues = int(metadata.get("n_residues", _REFERENCE_RESIDUES))
            seconds += per_residue * max(0, n_residues - _REFERENCE_RESIDUES)
        if io_seconds:
            seconds += io_seconds

        if sigma:
            # Jitter is keyed by the task name (unique and stable within a
            # campaign), so a campaign's timing does not depend on what else
            # ran in the same process.
            rng = self._jitter.stream(description.name)
            seconds *= float(np.exp(rng.normal(0.0, sigma)))

        return max(1e-3, seconds / self._speedup)
