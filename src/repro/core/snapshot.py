"""JSON-able snapshot codecs for cycle-boundary campaign state.

Checkpointing a campaign mid-run (see :class:`~repro.core.protocols.
CampaignState`) requires turning the live objects a pipeline carries across
cycle boundaries — complexes, metrics, trajectories, cycle results, profiler
traces and captured RNG states — into plain JSON values and back *exactly*.
Exactness is the whole point: the determinism contract promises that a run
suspended at a cycle boundary and resumed elsewhere finishes byte-identical
to an uninterrupted run, and Python's ``json`` round-trips floats losslessly
(``repr`` shortest-round-trip), so every numeric field survives the detour
through disk bit-for-bit.

A snapshot holds only what a resume cannot rebuild from the run spec.  A
complex is encoded relative to its target's complex (the resume rebuilds
the targets): only the receptor sequence and ``backbone_quality`` evolve,
so a complex is written as exactly those two, and the chains' coordinate
arrays are the target's own.  A profiler is written as its resource rows,
in recording order, and its phase totals::

    {"resource_intervals": [[task_id, node, cpu_core_ids, gpu_ids, start, end], ...],
     "phase_totals": {phase: seconds, ...}}

A :class:`~repro.hpc.profiling.ResourceInterval` is an immutable named
tuple that ``json`` already writes as its row, so a snapshot holds the
profiler's own rows and encodes nothing.

The codecs live in the core layer (they know the core dataclasses); the
storage envelope around them — schema versioning, atomic files, torn-tail
fallback — is :mod:`repro.store.checkpoint`'s concern.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import CampaignError, PipelineError
from repro.hpc.profiling import ExecutionProfiler, ResourceInterval
from repro.protein.metrics import QualityMetrics
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import Chain, ComplexStructure

__all__ = [
    "encode_rng_state",
    "decode_rng_state",
    "encode_complex",
    "decode_complex",
    "encode_metrics",
    "decode_metrics",
    "encode_trajectory",
    "decode_trajectory",
    "encode_cycle_result",
    "decode_cycle_result",
    "restore_profiler",
]


# -- RNG state ------------------------------------------------------------------ #


def encode_rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """Capture a generator's bit-generator state (plain ints and strings)."""
    return rng.bit_generator.state


def decode_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a captured state onto ``rng`` (in place, exact continuation)."""
    expected = rng.bit_generator.state.get("bit_generator")
    found = state.get("bit_generator")
    if found != expected:
        raise CampaignError(
            f"checkpointed RNG state is for bit generator {found!r}, "
            f"this build uses {expected!r}"
        )
    rng.bit_generator.state = state


# -- protein objects ------------------------------------------------------------ #


def _same_coordinates(chain: Chain, target_chain: Chain) -> bool:
    return chain.coordinates is target_chain.coordinates or np.array_equal(
        chain.coordinates, target_chain.coordinates
    )


def encode_complex(
    structure: ComplexStructure, target_complex: ComplexStructure
) -> Dict[str, Any]:
    """Encode ``structure`` as its differences from ``target_complex``.

    Raises
    ------
    PipelineError
        If ``structure`` does not keep the target's atoms: its receptor
        coordinates, its peptide chain, its name or its designable
        positions differ from the target's.  Nothing moves atoms today, so
        a structure that does is refused here rather than resumed with the
        target's.
    """
    if not (
        _same_coordinates(structure.receptor, target_complex.receptor)
        and _same_coordinates(structure.peptide, target_complex.peptide)
        and structure.peptide.sequence == target_complex.peptide.sequence
        and structure.name == target_complex.name
        and structure.designable_positions == target_complex.designable_positions
    ):
        raise PipelineError(
            f"complex {structure.name!r} does not keep the atoms of target "
            f"complex {target_complex.name!r}; a snapshot holds only its "
            "receptor sequence and backbone quality"
        )
    sequence = structure.receptor.sequence
    return {
        "receptor": {
            "residues": sequence.residues,
            "chain_id": sequence.chain_id,
            "name": sequence.name,
        },
        "backbone_quality": structure.backbone_quality,
    }


def decode_complex(
    payload: Dict[str, Any], target_complex: ComplexStructure
) -> ComplexStructure:
    """Rebuild a complex on ``target_complex``: its chains keep the target's arrays.

    The payload was read from disk, so its receptor sequence is validated
    as any new :class:`ProteinSequence` is, and
    :meth:`ComplexStructure.with_design` checks its length and chain id and
    the backbone quality.
    """
    receptor = payload["receptor"]
    return target_complex.with_design(
        ProteinSequence(
            residues=receptor["residues"],
            chain_id=receptor["chain_id"],
            name=receptor["name"],
        ),
        payload["backbone_quality"],
    )


def encode_metrics(metrics: Optional[QualityMetrics]) -> Optional[Dict[str, float]]:
    return None if metrics is None else metrics.as_dict()


def decode_metrics(payload: Optional[Dict[str, float]]) -> Optional[QualityMetrics]:
    return None if payload is None else QualityMetrics(**payload)


def encode_trajectory(trajectory: Trajectory) -> Dict[str, Any]:
    # Every constructor field: a resume rebuilds the trajectory from this alone.
    return {
        "trajectory_id": trajectory.trajectory_id,
        "pipeline_uid": trajectory.pipeline_uid,
        "target": trajectory.target,
        "cycle": trajectory.cycle,
        "retry_index": trajectory.retry_index,
        "sequence_name": trajectory.sequence_name,
        "sequence": trajectory.sequence,
        "metrics": encode_metrics(trajectory.metrics),
        "fitness": trajectory.fitness,
        "accepted": trajectory.accepted,
        "energy_total": trajectory.energy_total,
        "is_subpipeline": trajectory.is_subpipeline,
    }


def decode_trajectory(payload: Dict[str, Any]) -> Trajectory:
    return Trajectory(
        trajectory_id=payload["trajectory_id"],
        pipeline_uid=payload["pipeline_uid"],
        target=payload["target"],
        cycle=payload["cycle"],
        retry_index=payload["retry_index"],
        sequence_name=payload["sequence_name"],
        sequence=payload["sequence"],
        metrics=decode_metrics(payload["metrics"]),
        fitness=payload["fitness"],
        accepted=payload["accepted"],
        energy_total=payload["energy_total"],
        is_subpipeline=payload["is_subpipeline"],
    )


def encode_cycle_result(cycle: CycleResult) -> Dict[str, Any]:
    return {
        "pipeline_uid": cycle.pipeline_uid,
        "target": cycle.target,
        "cycle": cycle.cycle,
        "accepted": cycle.accepted,
        "best_metrics": encode_metrics(cycle.best_metrics),
        "best_sequence": cycle.best_sequence,
        "trajectories": [encode_trajectory(t) for t in cycle.trajectories],
        "retries_used": cycle.retries_used,
        "adaptive": cycle.adaptive,
    }


def decode_cycle_result(payload: Dict[str, Any]) -> CycleResult:
    return CycleResult(
        pipeline_uid=payload["pipeline_uid"],
        target=payload["target"],
        cycle=payload["cycle"],
        accepted=payload["accepted"],
        best_metrics=decode_metrics(payload["best_metrics"]),
        best_sequence=payload["best_sequence"],
        trajectories=[decode_trajectory(t) for t in payload["trajectories"]],
        retries_used=payload["retries_used"],
        adaptive=payload["adaptive"],
    )


# -- profiler traces ------------------------------------------------------------ #


def restore_profiler(profiler: ExecutionProfiler, payload: Dict[str, Any]) -> None:
    """Replay a serialised profiler onto a fresh one.

    Rows are rebuilt in recorded order, with their id lists as tuples, so a
    restored row equals the live one; utilization sums iterate in recording
    order, and float summation order is part of the byte-identity contract.
    Each phase total is replayed as one interval from 0.0: ``x - 0.0`` and
    ``0.0 + x`` are exact, so the restored total is the saved one.
    """
    for task_id, node, cpu_core_ids, gpu_ids, start, end in payload["resource_intervals"]:
        profiler.record_resource_interval(
            ResourceInterval(task_id, node, tuple(cpu_core_ids), tuple(gpu_ids), start, end)
        )
    for phase, seconds in payload["phase_totals"].items():
        profiler.record_phase(phase, 0.0, seconds)
