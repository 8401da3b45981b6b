"""The six IMPRESS pipeline stages as task factories.

Each stage of Fig 1 becomes a :class:`~repro.runtime.task.TaskDescription`
whose payload calls the protein surrogates and returns exactly what the
pipeline's handler for that stage reads.  The factory only *builds* task
descriptions — executing them (concurrently through the pilot runtime for
IM-RP, or sequentially for CONT-V) is the caller's concern, which is exactly
the split the paper describes between the pipeline definition and the
RADICAL-Pilot execution layer.

Stage map (paper numbering):

* Stage 1 — :meth:`StageFactory.sequence_generation` (ProteinMPNN).
* Stage 2 — :meth:`StageFactory.sequence_ranking` (sort by log-likelihood).
* Stage 3 — :meth:`StageFactory.sequence_selection` (FASTA compilation).
* Stage 4 — :meth:`StageFactory.structure_msa` +
  :meth:`StageFactory.structure_inference` (AlphaFold, split into its
  CPU/I-O-bound MSA phase and GPU inference phase).
* Stage 5 — :meth:`StageFactory.scoring` (metrics gathering / coarse energy).
* Stage 6 — :meth:`StageFactory.compare` (accept/reject vs previous cycle).

The stage payloads ride on the vectorized evaluation core: Stage 1 generation
batches its partial scores, Stage 2 ranking is a stable vectorized argsort,
and Stage 5 scoring gathers a precomputed pair-energy matrix over the contact
mask — no per-residue Python on any hot path.  Stages 3 and 4a have no
payload: their tasks model the time those phases take on the real system,
and the surrogate folds the selected sequence directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.decision import AcceptancePolicy
from repro.protein.datasets import DesignTarget
from repro.protein.folding import FoldingResult, SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics
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
        self, pipeline_uid: str, target: DesignTarget, stage: str, **extra: object
    ) -> Dict[str, object]:
        # Only what is read: the coordinator and the pipeline route a task by
        # its pipeline uid and stage, and the duration model scales its time
        # by the residue count (and the sequence count, where one is given).
        return {
            "pipeline_uid": pipeline_uid,
            "stage": stage,
            "n_residues": target.complex.total_residues,
            **extra,
        }

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
                pipeline_uid, target, "sequence_generation", n_sequences=n_sequences
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
                pipeline_uid, target, "sequence_ranking", n_sequences=len(frozen)
            ),
        )

    # -- Stage 3: sequence selection / FASTA compilation ---------------------- #

    def sequence_selection(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        retry_index: int,
    ) -> TaskDescription:
        """Compile the selected design into AlphaFold's FASTA input.

        The task models the time FASTA compilation takes and has no payload:
        the surrogate folds the selected sequence directly.
        """
        kind = TaskKind.SEQUENCE_SELECT
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.select",
            kind=kind.value,
            request=self._durations.request_for(kind),
            metadata=self._base_metadata(pipeline_uid, target, "sequence_selection"),
        )

    # -- Stage 4a: AlphaFold MSA / feature construction (CPU + I/O) ------------ #

    def structure_msa(
        self,
        pipeline_uid: str,
        target: DesignTarget,
        cycle: int,
        retry_index: int,
    ) -> TaskDescription:
        """The CPU/I-O-bound database-search phase of AlphaFold.

        The task models that phase's time and has no payload: the surrogate
        needs no features, and its MSA mode acts on the inference stage's
        metric noise.
        """
        kind = TaskKind.AF_MSA
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.af_msa",
            kind=kind.value,
            request=self._durations.request_for(kind),
            metadata=self._base_metadata(pipeline_uid, target, "structure_msa"),
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
            metadata=self._base_metadata(pipeline_uid, target, "structure_inference"),
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
        """Coarse energy scoring of the predicted complex: its total energy."""
        models = self._models

        def payload() -> float:
            return models.scoring.score(folding_result.structure).total

        kind = TaskKind.SCORING
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.score",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(pipeline_uid, target, "scoring"),
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

        def payload() -> bool:
            return policy.accepts(new_metrics, previous_metrics)

        kind = TaskKind.COMPARE
        return TaskDescription(
            name=f"{pipeline_uid}.c{cycle}.r{retry_index}.compare",
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata=self._base_metadata(pipeline_uid, target, "compare"),
        )
