"""The six IMPRESS pipeline stages as task factories.

Each stage of Fig 1 becomes a :class:`~repro.runtime.task.TaskDescription`
whose payload calls the protein surrogates.  The factory only *builds* task
descriptions — executing them (concurrently through the pilot runtime for
IM-RP, or sequentially for CONT-V) is the caller's concern, which is exactly
the split the paper describes between the pipeline definition and the
RADICAL-Pilot execution layer.

Stage map (paper numbering):

* Stage 1 — :meth:`StageFactory.sequence_generation` (ProteinMPNN).
* Stage 2 — :meth:`StageFactory.sequence_ranking` (sort by log-likelihood).
* Stage 3 — :meth:`StageFactory.sequence_selection` (compile FASTA input).
* Stage 4 — :meth:`StageFactory.structure_msa` +
  :meth:`StageFactory.structure_inference` (AlphaFold, split into its
  CPU/I-O-bound MSA phase and GPU inference phase).
* Stage 5 — :meth:`StageFactory.scoring` (metrics gathering / coarse energy).
* Stage 6 — :meth:`StageFactory.compare` (accept/reject vs previous cycle).

The stage payloads ride on the vectorized evaluation core: Stage 1 generation
batches its partial scores, Stage 2 ranking is a stable vectorized argsort,
and Stage 5 scoring gathers a precomputed pair-energy matrix over the contact
mask — no per-residue Python on any hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.decision import AcceptancePolicy
from repro.protein.datasets import DesignTarget
from repro.protein.fasta import format_fasta
from repro.protein.folding import FoldingResult, SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics, composite_score
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.protein.sequence import ProteinSequence, ScoredSequence
from repro.protein.structure import ComplexStructure
from repro.runtime.durations import DurationModel, TaskKind
from repro.runtime.task import TaskDescription

__all__ = ["StageModels", "StageFactory"]


@dataclass
class StageModels:
    """The application models shared by every pipeline of a campaign."""

    mpnn: SurrogateProteinMPNN = field(default_factory=SurrogateProteinMPNN)
    folding: SurrogateAlphaFold = field(default_factory=SurrogateAlphaFold)
    scoring: ScoringFunction = field(default_factory=ScoringFunction)


class StageFactory:
    """Builds the task descriptions of one pipeline's stages.

    Parameters
    ----------
    models:
        The surrogate models invoked by the task payloads.
    durations:
        Duration model supplying the default resource request per task kind
        (so that, e.g., the AlphaFold MSA stage asks for 6 CPU cores and the
        inference stage for one GPU).
    """

    def __init__(
        self,
        models: Optional[StageModels] = None,
        durations: Optional[DurationModel] = None,
    ) -> None:
        self._models = models or StageModels()
        self._durations = durations or DurationModel()

    @property
    def models(self) -> StageModels:
        return self._models

    def _base_metadata(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        stage: str,
        **extra: object,
    ) -> Dict[str, object]:
        metadata: Dict[str, object] = {
            "pipeline_uid": pipeline_uid,
            "target": target.name,
            "cycle": cycle,
            "stage": stage,
            "n_residues": target.complex.total_residues,
        }
        metadata.update(extra)
        return metadata

    # -- Stage 1: sequence generation (ProteinMPNN) -------------------------- #

    def sequence_generation(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        complex_structure: ComplexStructure,
        cycle: int,
        n_sequences: int,
    ) -> TaskDescription:
        """ProteinMPNN generation of ``n_sequences`` candidate designs."""
        models = self._models

        def payload() -> List[ScoredSequence]:
            return models.mpnn.generate(
                complex_structure,
                target.landscape,
                n_sequences=n_sequences,
                stream=(pipeline_uid, cycle),
            )

        kind = TaskKind.MPNN_GENERATE
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.mpnn",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "sequence_generation",
                n_sequences=n_sequences,
            ),
        )

    # -- Stage 2: sequence ranking ------------------------------------------- #

    def sequence_ranking(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        candidates: Sequence[ScoredSequence],
    ) -> TaskDescription:
        """Sort candidates by ProteinMPNN log-likelihood (best first)."""
        frozen = list(candidates)

        def payload() -> List[ScoredSequence]:
            return ScoredSequence.rank(frozen)

        kind = TaskKind.SEQUENCE_RANK
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.rank",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "sequence_ranking",
                n_sequences=len(frozen),
            ),
        )

    # -- Stage 3: sequence selection / FASTA compilation ---------------------- #

    def sequence_selection(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        selected: ScoredSequence,
        retry_index: int,
    ) -> TaskDescription:
        """Compile the selected design plus the peptide into a FASTA record."""
        peptide = target.complex.peptide.sequence

        def payload() -> Dict[str, object]:
            fasta_text = format_fasta([selected.sequence, peptide])
            return {
                "fasta": fasta_text,
                "selected_name": selected.sequence.name,
                "log_likelihood": selected.log_likelihood,
                "retry_index": retry_index,
            }

        kind = TaskKind.SEQUENCE_SELECT
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.select",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "sequence_selection",
                retry_index=retry_index,
            ),
        )

    # -- Stage 4a: AlphaFold MSA / feature construction (CPU + I/O) ------------ #

    def structure_msa(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        sequence: ProteinSequence,
        retry_index: int,
    ) -> TaskDescription:
        """The CPU/I-O-bound database-search phase of AlphaFold."""

        def payload() -> Dict[str, object]:
            # The surrogate needs no real features; the payload records what a
            # feature bundle would contain so downstream stages can assert on it.
            return {
                "sequence_name": sequence.name,
                "n_residues": len(sequence) + len(target.complex.peptide),
                "msa_depth": 2048 if self._models.folding.msa_mode == "full_msa" else 1,
            }

        kind = TaskKind.AF_MSA
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.af_msa",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "structure_msa",
                retry_index=retry_index,
            ),
        )

    # -- Stage 4b: AlphaFold inference (GPU) ------------------------------------ #

    def structure_inference(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        complex_structure: ComplexStructure,
        cycle: int,
        sequence: ProteinSequence,
        retry_index: int,
    ) -> TaskDescription:
        """GPU inference producing the predicted complex and its metrics."""
        models = self._models

        def payload() -> FoldingResult:
            return models.folding.predict(
                complex_structure,
                target.landscape,
                sequence,
                stream=(pipeline_uid, cycle, retry_index),
            )

        kind = TaskKind.AF_INFERENCE
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.af_infer",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "structure_inference",
                retry_index=retry_index,
            ),
        )

    # -- Stage 5: scoring and metrics gathering ---------------------------------- #

    def scoring(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        folding_result: FoldingResult,
        retry_index: int,
    ) -> TaskDescription:
        """Coarse energy scoring of the predicted complex."""
        models = self._models

        def payload() -> Dict[str, object]:
            breakdown = models.scoring.score(folding_result.structure)
            return {
                "energy": breakdown.as_dict(),
                "metrics": folding_result.metrics.as_dict(),
                "composite": composite_score(folding_result.metrics),
            }

        kind = TaskKind.SCORING
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.score",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "scoring",
                retry_index=retry_index,
            ),
        )

    # -- Stage 6: comparison with the previous iteration --------------------------- #

    def compare(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        new_metrics: QualityMetrics,
        previous_metrics: Optional[QualityMetrics],
        policy: AcceptancePolicy,
        retry_index: int,
    ) -> TaskDescription:
        """Accept/reject the new design relative to the previous cycle."""

        def payload() -> Dict[str, object]:
            accepted = policy.accepts(new_metrics, previous_metrics)
            return {
                "accepted": accepted,
                "new_composite": composite_score(new_metrics),
                "previous_composite": (
                    composite_score(previous_metrics)
                    if previous_metrics is not None
                    else None
                ),
                "retry_index": retry_index,
            }

        kind = TaskKind.COMPARE
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.compare",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(
                pipeline_uid, target, cycle, "compare",
                retry_index=retry_index,
            ),
        )
