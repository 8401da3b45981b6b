"""The six IMPRESS pipeline stages as task factories.

Each stage of Fig 1 becomes a :class:`~repro.runtime.task.TaskDescription`
whose payload calls the protein surrogates and returns exactly what the
pipeline's handler for that stage reads.  The factory only *builds* task
descriptions — executing them (concurrently through the pilot runtime for
IM-RP, or sequentially for CONT-V) is the caller's concern, which is exactly
the split the paper describes between the pipeline definition and the
RADICAL-Pilot execution layer.

Stage map (paper numbering), each builder with the task kind that names its
stage:

* Stage 1 — :meth:`StageFactory.sequence_generation` (ProteinMPNN),
  ``mpnn_generate``.
* Stage 2 — :meth:`StageFactory.sequence_ranking` (sort by log-likelihood),
  ``sequence_rank``.
* Stage 3 — :meth:`StageFactory.sequence_selection` (FASTA compilation),
  ``sequence_select``.
* Stage 4 — :meth:`StageFactory.structure_msa` (``af_msa``) +
  :meth:`StageFactory.structure_inference` (``af_inference``): AlphaFold,
  split into its CPU/I-O-bound MSA phase and GPU inference phase.
* Stage 5 — :meth:`StageFactory.scoring` (metrics gathering / coarse energy),
  ``scoring``.
* Stage 6 — :meth:`StageFactory.compare` (accept/reject vs previous cycle),
  ``compare``.

The stage payloads ride on the vectorized evaluation core: Stage 1 generation
batches its partial scores, Stage 2 ranking is a stable vectorized argsort,
and Stage 5 scoring gathers a precomputed pair-energy matrix over the contact
mask — no per-residue Python on any hot path.  Stages 3 and 4a have no
payload: their tasks model the time those phases take on the real system,
and the surrogate folds the selected sequence directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

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

    def _task(
        self,
        kind: TaskKind,
        name: str,
        pipeline_uid: str,
        target: DesignTarget,
        payload: Optional[Callable[[], object]] = None,
        **sizes: int,
    ) -> TaskDescription:
        # Metadata holds only what is read: the coordinator routes a task by
        # its pipeline uid, and the duration model scales its time by the
        # residue count (and the sequence count, where one is given).  The
        # pipeline routes it to a stage handler by its kind.
        return TaskDescription(
            name=name,
            kind=kind.value,
            request=self._durations.request_for(kind),
            payload=payload,
            metadata={
                "pipeline_uid": pipeline_uid,
                "n_residues": target.complex.total_residues,
                **sizes,
            },
        )

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

        return self._task(
            TaskKind.MPNN_GENERATE,
            f"{pipeline_uid}.c{cycle}.mpnn",
            pipeline_uid,
            target,
            payload,
            n_sequences=n_sequences,
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

        return self._task(
            TaskKind.SEQUENCE_RANK,
            f"{pipeline_uid}.c{cycle}.rank",
            pipeline_uid,
            target,
            payload,
            n_sequences=len(frozen),
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
        return self._task(
            TaskKind.SEQUENCE_SELECT,
            f"{pipeline_uid}.c{cycle}.r{retry_index}.select",
            pipeline_uid,
            target,
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
        return self._task(
            TaskKind.AF_MSA,
            f"{pipeline_uid}.c{cycle}.r{retry_index}.af_msa",
            pipeline_uid,
            target,
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

        return self._task(
            TaskKind.AF_INFERENCE,
            f"{pipeline_uid}.c{cycle}.r{retry_index}.af_infer",
            pipeline_uid,
            target,
            payload,
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

        return self._task(
            TaskKind.SCORING,
            f"{pipeline_uid}.c{cycle}.r{retry_index}.score",
            pipeline_uid,
            target,
            payload,
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

        return self._task(
            TaskKind.COMPARE,
            f"{pipeline_uid}.c{cycle}.r{retry_index}.compare",
            pipeline_uid,
            target,
            payload,
        )
