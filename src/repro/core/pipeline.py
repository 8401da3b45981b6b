"""The IMPRESS pipeline state machine and its stage tasks.

A :class:`Pipeline` binds the six stages of Fig 1 into the iterative design
cycle: generate sequences, rank them, select one, predict its structure,
score it, compare against the previous cycle, and either advance to the next
cycle (feeding the refined structure back into ProteinMPNN) or fall back to
the next-ranked sequence, terminating after the retry budget is exhausted.
RADICAL-Pilot has no pipeline abstraction, so — exactly as the paper did —
we implement one on top of plain tasks: the pipeline emits task descriptions
and consumes completed tasks, never blocking, so any executor (the
asynchronous pilot agent or the sequential control runner) can drive it.
That is the split the paper describes between the pipeline definition and
the RADICAL-Pilot execution layer.

Each stage becomes a :class:`~repro.runtime.task.TaskDescription` whose
payload calls the campaign's shared surrogates (:class:`StageModels`) and
returns exactly what the pipeline's handler for that stage reads.  Stage map
(paper numbering), each stage with the task kind that names it:

* Stage 1 — sequence generation (ProteinMPNN), ``mpnn_generate``.
* Stage 2 — sequence ranking (sort by log-likelihood), ``sequence_rank``.
* Stage 3 — sequence selection (FASTA compilation), ``sequence_select``.
* Stage 4 — AlphaFold, split into its CPU/I-O-bound MSA phase (``af_msa``)
  and its GPU inference phase (``af_inference``).
* Stage 5 — scoring (metrics gathering / coarse energy), ``scoring``.
* Stage 6 — comparison with the previous cycle (accept/reject), ``compare``.

The payloads ride on the vectorized evaluation core: Stage 1 generation
batches its partial scores, Stage 4b folding builds each refined complex once,
and Stage 5 scoring gathers a precomputed pair-energy matrix over the contact
mask — no per-residue Python on any hot path.  Stage 2 ranking is one stable
``sorted`` call on the candidates' log-likelihoods: NumPy's set-up costs more
than sorting ten floats.  Stages 3 and 4a have no
payload: their tasks model the time those phases take on the real system,
and the surrogate folds the selected sequence directly.

A running pipeline has exactly one outstanding task: the task of the stage
it awaits.  :meth:`Pipeline.pending_task` is the only code that builds a
stage task, through the stage's builder in ``_STAGE_TASKS`` (beside its
handler in ``_STAGE_HANDLERS``).  A builder reads only fields that stay
fixed while its task is outstanding and draws no randomness, so an executor
can rebuild the outstanding task from the pipeline at any time instead of
carrying it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.core.decision import AcceptancePolicy
from repro.core.snapshot import (
    decode_complex,
    decode_cycle_result,
    decode_metrics,
    decode_rng_state,
    decode_trajectory,
    encode_complex,
    encode_cycle_result,
    encode_metrics,
    encode_rng_state,
    encode_trajectory,
)
from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import ConfigurationError, PipelineError
from repro.protein.datasets import DesignTarget
from repro.protein.folding import FoldingResult, SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.protein.sequence import ScoredSequence
from repro.protein.structure import ComplexStructure
from repro.runtime.durations import TaskKind, request_for
from repro.runtime.task import Task, TaskDescription
from repro.utils.rng import spawn_rng

__all__ = ["StageModels", "PipelineConfig", "PipelineStatus", "PipelineStep", "Pipeline"]


@dataclass
class StageModels:
    """The application models shared by every pipeline of a campaign."""

    mpnn: SurrogateProteinMPNN = field(default_factory=SurrogateProteinMPNN)
    folding: SurrogateAlphaFold = field(default_factory=SurrogateAlphaFold)
    scoring: ScoringFunction = field(default_factory=ScoringFunction)


class PipelineStatus(str, enum.Enum):
    """Lifecycle of a pipeline."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    TERMINATED = "TERMINATED"
    FAILED = "FAILED"


@dataclass(frozen=True)
class PipelineConfig:
    """Protocol parameters of one pipeline.

    Attributes
    ----------
    n_cycles:
        Number of design cycles (``M`` in the paper; 4 in the evaluation).
    n_sequences:
        Sequences generated by ProteinMPNN per cycle (10 in the paper).
    max_retries:
        Alternative-selection budget per cycle before the pipeline is
        terminated (10 in the paper).
    adaptive:
        Whether Stage 6 actually gates cycle acceptance.  ``False`` gives the
        control behaviour: the predicted structure is always carried forward.
    random_selection:
        Select the evaluated sequence uniformly at random from the generated
        set instead of taking the top-ranked one (the control's behaviour).
    acceptance:
        The Stage 6 accept/reject policy.
    adaptivity_schedule:
        Optional per-cycle override of ``adaptive`` (e.g. Fig 3 disables
        adaptivity in the final cycle).  Length must equal ``n_cycles``.
    selection_seed:
        Seed for the random-selection stream (control only).
    """

    n_cycles: int = 4
    n_sequences: int = 10
    max_retries: int = 10
    adaptive: bool = True
    random_selection: bool = False
    acceptance: AcceptancePolicy = field(default_factory=AcceptancePolicy)
    adaptivity_schedule: Optional[Tuple[bool, ...]] = None
    selection_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cycles < 1:
            raise ConfigurationError("n_cycles must be >= 1")
        if self.n_sequences < 1:
            raise ConfigurationError("n_sequences must be >= 1")
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        if (
            self.adaptivity_schedule is not None
            and len(self.adaptivity_schedule) != self.n_cycles
        ):
            raise ConfigurationError(
                "adaptivity_schedule length must equal n_cycles"
            )

    def adaptive_for_cycle(self, cycle: int) -> bool:
        """Whether Stage 6 gates acceptance in the given cycle."""
        if not self.adaptive:
            return False
        if self.adaptivity_schedule is None:
            return True
        return bool(self.adaptivity_schedule[cycle])


@dataclass
class PipelineStep:
    """What follows one consumed task.

    ``task`` is the pipeline's next outstanding task, ``None`` once the
    pipeline has finished.  ``completed_cycle`` is set when the consumed
    task closed a design cycle.
    """

    task: Optional[TaskDescription]
    completed_cycle: Optional[CycleResult] = None


class Pipeline:
    """One design pipeline for one target.

    ``models`` are the campaign's shared surrogates, which the payloads of
    the pipeline's stage tasks call.
    """

    def __init__(
        self,
        uid: str,
        target: DesignTarget,
        models: StageModels,
        config: Optional[PipelineConfig] = None,
        parent_uid: Optional[str] = None,
        starting_complex: Optional[ComplexStructure] = None,
        starting_metrics: Optional[QualityMetrics] = None,
    ) -> None:
        if not uid:
            raise ConfigurationError("pipeline uid must be non-empty")
        self.uid = uid
        self.target = target
        self.parent_uid = parent_uid
        self._models = models
        self._config = config or PipelineConfig()
        self._status = PipelineStatus.PENDING

        #: Every stage task's ``n_residues``, fixed by the target.
        self._n_residues = target.complex.total_residues
        self._complex = starting_complex or target.complex
        self._previous_metrics = starting_metrics
        self._cycle = 0
        self._retry_index = 0
        self._candidates: List[ScoredSequence] = []
        self._ranked: List[ScoredSequence] = []
        self._selected: Optional[ScoredSequence] = None
        self._current_folding: Optional[FoldingResult] = None
        self._current_energy: Optional[float] = None
        self._cycle_trajectories: List[Trajectory] = []
        self._cycle_results: List[CycleResult] = []
        self._rng = spawn_rng(self._config.selection_seed, "pipeline-select", uid)
        #: The kind of the outstanding task, which names its stage: ``None``
        #: before :meth:`start` and once the pipeline has finished.
        self._awaited: Optional[TaskKind] = None

    # -- introspection --------------------------------------------------------- #

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def status(self) -> PipelineStatus:
        return self._status

    @property
    def is_subpipeline(self) -> bool:
        return self.parent_uid is not None

    @property
    def is_finished(self) -> bool:
        return self._status in (
            PipelineStatus.COMPLETED,
            PipelineStatus.TERMINATED,
            PipelineStatus.FAILED,
        )

    @property
    def current_complex(self) -> ComplexStructure:
        return self._complex

    @property
    def latest_metrics(self) -> Optional[QualityMetrics]:
        return self._previous_metrics

    @property
    def cycle_results(self) -> List[CycleResult]:
        return list(self._cycle_results)

    @property
    def trajectories(self) -> List[Trajectory]:
        """The cycle results' trajectories, then the current cycle's."""
        done = [t for cycle in self._cycle_results for t in cycle.trajectories]
        return done + self._cycle_trajectories

    # -- lifecycle ---------------------------------------------------------------- #

    def start(self) -> TaskDescription:
        """Emit the first stage's task.  May be called exactly once."""
        if self._status is not PipelineStatus.PENDING:
            raise PipelineError(f"pipeline {self.uid} was already started")
        self._status = PipelineStatus.RUNNING
        self._awaited = TaskKind.MPNN_GENERATE
        return self.pending_task()

    def pending_task(self) -> Optional[TaskDescription]:
        """Build the outstanding task: the one of the awaited stage.

        Returns ``None`` before :meth:`start` and once the pipeline has
        finished.  Calling it changes nothing: every input stays fixed while
        the task is outstanding and the selection draw was made on entering
        the stage, so each call builds the same task.
        """
        kind = self._awaited
        if kind is None:
            return None
        return _STAGE_TASKS[kind](self)

    def advance(self, task: Task) -> PipelineStep:
        """Consume the awaited stage's completed task and decide what happens next.

        Raises
        ------
        PipelineError
            If the task does not belong to this pipeline, arrives while the
            pipeline is not running, or is of a kind other than the awaited
            one.
        """
        if task.metadata.get("pipeline_uid") != self.uid:
            raise PipelineError(
                f"task {task.name} (pipeline {task.metadata.get('pipeline_uid')!r}) "
                f"routed to pipeline {self.uid}"
            )
        if self._status is not PipelineStatus.RUNNING:
            raise PipelineError(
                f"pipeline {self.uid} received task {task.name} while {self._status}"
            )
        awaited = self._awaited
        if task.kind != awaited:
            raise PipelineError(
                f"pipeline {self.uid} awaits a {awaited.value} task, "
                f"got task {task.name} of kind {task.kind!r}"
            )
        if task.failed:
            self._finish(PipelineStatus.FAILED)
            return PipelineStep(None)
        completed_cycle = _STAGE_HANDLERS[awaited](self, task)
        return PipelineStep(self.pending_task(), completed_cycle)

    def _finish(self, status: PipelineStatus) -> None:
        self._status = status
        self._awaited = None

    # -- stages: each stage's task builder, then its handler ---------------------------- #

    def _task(
        self,
        kind: TaskKind,
        name: str,
        payload: Optional[Callable[[], object]] = None,
        **sizes: int,
    ) -> TaskDescription:
        # Metadata holds only what is read: the coordinator routes a task by
        # its pipeline uid, and the duration model scales its time by the
        # residue count (and the sequence count, where one is given).  The
        # pipeline routes it to a stage handler by its kind.
        kind_value, request = _KIND_FIELDS[kind]
        return TaskDescription(
            name=f"{self.uid}.c{self._cycle}.{name}",
            kind=kind_value,
            request=request,
            payload=payload,
            metadata={"pipeline_uid": self.uid, "n_residues": self._n_residues, **sizes},
        )

    def _generation_task(self) -> TaskDescription:
        """Stage 1: ProteinMPNN generation of ``n_sequences`` candidate designs."""
        n_sequences = self._config.n_sequences
        payload = partial(
            self._models.mpnn.generate,
            self._complex,
            self.target.landscape,
            n_sequences=n_sequences,
            stream=(self.uid, self._cycle),
        )
        return self._task(
            TaskKind.MPNN_GENERATE, "mpnn", payload, n_sequences=n_sequences
        )

    def _on_generation(self, task: Task) -> None:
        self._candidates = list(task.result)
        if not self._candidates:
            self._finish(PipelineStatus.FAILED)
            return
        self._awaited = TaskKind.SEQUENCE_RANK

    def _ranking_task(self) -> TaskDescription:
        """Stage 2: sort the candidates by ProteinMPNN log-likelihood (best first)."""
        candidates = self._candidates
        return self._task(
            TaskKind.SEQUENCE_RANK,
            "rank",
            partial(ScoredSequence.rank, candidates),
            n_sequences=len(candidates),
        )

    def _on_ranking(self, task: Task) -> None:
        self._ranked = list(task.result)
        self._retry_index = 0
        self._cycle_trajectories = []
        self._await_selection()

    def _await_selection(self) -> None:
        # Adaptivity covers both halves of the genetic mechanism: ranked
        # selection and comparison-based pruning.  A *scheduled-off* cycle of
        # a nominally adaptive pipeline therefore also falls back to the
        # control's random pick (this is what produces Fig 3's final-cycle
        # deterioration).  A never-adaptive pipeline keeps whatever selection
        # mode it was configured with, so sequential protocols can run either
        # random (cont-v) or ranked (cont-v-ranked) selection.  The draw is
        # made here, on entering the stage, so that pending_task() never draws.
        scheduled_off = self._config.adaptive and not self._config.adaptive_for_cycle(
            self._cycle
        )
        if self._config.random_selection or scheduled_off:
            index = int(self._rng.integers(0, len(self._candidates)))
            self._selected = self._candidates[index]
        else:
            index = min(self._retry_index, len(self._ranked) - 1)
            self._selected = self._ranked[index]
        self._awaited = TaskKind.SEQUENCE_SELECT

    def _selection_task(self) -> TaskDescription:
        """Stage 3: compile the selected design into AlphaFold's FASTA input.

        The task models the time FASTA compilation takes and has no payload:
        the surrogate folds the selected sequence directly.
        """
        return self._task(TaskKind.SEQUENCE_SELECT, f"r{self._retry_index}.select")

    def _on_selection(self, task: Task) -> None:
        self._awaited = TaskKind.AF_MSA

    def _msa_task(self) -> TaskDescription:
        """Stage 4a: the CPU/I-O-bound database-search phase of AlphaFold.

        The task models that phase's time and has no payload: the surrogate
        needs no features, and its MSA mode acts on the inference stage's
        metric noise.
        """
        return self._task(TaskKind.AF_MSA, f"r{self._retry_index}.af_msa")

    def _on_msa(self, task: Task) -> None:
        self._awaited = TaskKind.AF_INFERENCE

    def _inference_task(self) -> TaskDescription:
        """Stage 4b: GPU inference producing the predicted complex and its metrics."""
        retry = self._retry_index
        payload = partial(
            self._models.folding.predict,
            self._complex,
            self.target.landscape,
            self._selected.sequence,
            stream=(self.uid, self._cycle, retry),
        )
        return self._task(TaskKind.AF_INFERENCE, f"r{retry}.af_infer", payload)

    def _on_inference(self, task: Task) -> None:
        self._current_folding = task.result
        self._awaited = TaskKind.SCORING

    def _scoring_task(self) -> TaskDescription:
        """Stage 5: coarse energy scoring of the predicted complex, its total energy."""
        scoring, structure = self._models.scoring, self._current_folding.structure

        def payload() -> float:
            return scoring.score(structure).total

        return self._task(TaskKind.SCORING, f"r{self._retry_index}.score", payload)

    def _on_scoring(self, task: Task) -> None:
        self._current_energy = task.result
        self._awaited = TaskKind.COMPARE

    def _compare_task(self) -> TaskDescription:
        """Stage 6: accept or reject the new design against the previous cycle's."""
        payload = partial(
            self._config.acceptance.accepts,
            self._current_folding.metrics,
            self._previous_metrics,
        )
        return self._task(TaskKind.COMPARE, f"r{self._retry_index}.compare", payload)

    def _on_compare(self, task: Task) -> Optional[CycleResult]:
        assert self._current_folding is not None and self._selected is not None
        adaptive = self._config.adaptive_for_cycle(self._cycle)
        accepted = task.result or not adaptive

        trajectory = Trajectory(
            trajectory_id=f"{self.uid}.c{self._cycle}.r{self._retry_index}",
            pipeline_uid=self.uid,
            target=self.target.name,
            cycle=self._cycle,
            retry_index=self._retry_index,
            sequence_name=self._selected.sequence.name,
            sequence=self._selected.sequence.residues,
            metrics=self._current_folding.metrics,
            fitness=self._current_folding.fitness,
            accepted=accepted,
            energy_total=self._current_energy,
            is_subpipeline=self.is_subpipeline,
        )
        self._cycle_trajectories.append(trajectory)

        if accepted:
            return self._accept_cycle(adaptive)
        return self._reject_candidate(adaptive)

    # -- cycle bookkeeping -------------------------------------------------------------- #

    def _accept_cycle(self, adaptive: bool) -> CycleResult:
        assert self._current_folding is not None and self._selected is not None
        metrics = self._current_folding.metrics
        cycle_result = CycleResult(
            pipeline_uid=self.uid,
            target=self.target.name,
            cycle=self._cycle,
            accepted=True,
            best_metrics=metrics,
            best_sequence=self._selected.sequence.residues,
            trajectories=list(self._cycle_trajectories),
            retries_used=self._retry_index,
            adaptive=adaptive,
        )
        self._cycle_results.append(cycle_result)
        self._complex = self._current_folding.structure
        self._previous_metrics = metrics
        self._cycle += 1
        self._retry_index = 0
        # The next cycle's stages reassign each per-cycle field before
        # reading it; clearing them here exists so that a pipeline between
        # cycles, and a finished one, holds no candidates, rankings or
        # structures.
        self._current_folding = None
        self._current_energy = None
        self._selected = None
        self._candidates = []
        self._ranked = []
        self._cycle_trajectories = []

        if self._cycle >= self._config.n_cycles:
            self._finish(PipelineStatus.COMPLETED)
        else:
            self._awaited = TaskKind.MPNN_GENERATE
        return cycle_result

    def _reject_candidate(self, adaptive: bool) -> Optional[CycleResult]:
        self._retry_index += 1
        retry_budget = min(self._config.max_retries, len(self._ranked))
        if self._retry_index >= retry_budget:
            # Alternative selection exhausted: the pipeline terminates
            # (the paper allows up to 10 alternatives, then stops).
            cycle_result = CycleResult(
                pipeline_uid=self.uid,
                target=self.target.name,
                cycle=self._cycle,
                accepted=False,
                best_metrics=self._previous_metrics,
                best_sequence=self._complex.receptor.sequence.residues,
                trajectories=list(self._cycle_trajectories),
                retries_used=self._retry_index,
                adaptive=adaptive,
            )
            self._cycle_results.append(cycle_result)
            self._cycle_trajectories = []
            self._finish(PipelineStatus.TERMINATED)
            return cycle_result
        self._await_selection()
        return None

    # -- cycle-boundary suspend / resume ---------------------------------------------- #

    @property
    def at_cycle_boundary(self) -> bool:
        """Whether the pipeline awaits the next cycle's generation task, or nothing.

        This is the only point where a pipeline may be snapshotted: the
        outstanding task, if any, is rebuilt by :meth:`pending_task` from
        the cross-cycle state alone.
        """
        return self._awaited in (None, TaskKind.MPNN_GENERATE)

    def snapshot(self) -> dict:
        """Serialise the cross-cycle state as plain JSON values.

        Everything a resumed pipeline needs to continue bit-identically:
        the current complex (relative to the target's), the previous
        cycle's metrics, accumulated cycle results, the trajectories no
        cycle result holds, and the exact selection-RNG state.  Floats
        survive the JSON round-trip losslessly, which is what makes the
        resume byte-identity contract possible.

        The trajectories are the cycle results' trajectories, in order,
        followed by a tail that only a pipeline which failed mid-cycle
        after a rejected candidate has; only that tail is written.

        Raises
        ------
        PipelineError
            If called mid-cycle (a stage task is in flight); checkpoints are
            cycle-granular by design.
        """
        if not self.at_cycle_boundary:
            raise PipelineError(
                f"pipeline {self.uid} cannot snapshot mid-cycle "
                f"(cycle {self._cycle}, retry {self._retry_index})"
            )
        return {
            "uid": self.uid,
            "target": self.target.name,
            "parent_uid": self.parent_uid,
            "status": self._status.value,
            "cycle": self._cycle,
            "complex": encode_complex(self._complex, self.target.complex),
            "previous_metrics": encode_metrics(self._previous_metrics),
            "cycle_results": [
                encode_cycle_result(cycle) for cycle in self._cycle_results
            ],
            "trajectories": [
                encode_trajectory(trajectory)
                for trajectory in self._cycle_trajectories
            ],
            "rng_state": encode_rng_state(self._rng),
        }

    @classmethod
    def restore_snapshot(
        cls,
        payload: dict,
        target: DesignTarget,
        models: StageModels,
        config: PipelineConfig,
    ) -> "Pipeline":
        """Rebuild a pipeline at the cycle boundary captured by ``payload``.

        ``target``, ``models`` and ``config`` are rebuilt by the caller from
        the declarative run spec (they are deterministic in it); the snapshot
        carries only the evolving state, and the restored complex is built
        on ``target.complex``.
        """
        if payload["target"] != target.name:
            raise PipelineError(
                f"snapshot is for target {payload['target']!r}, "
                f"got {target.name!r}"
            )
        pipeline = cls(
            uid=payload["uid"],
            target=target,
            models=models,
            config=config,
            parent_uid=payload["parent_uid"],
        )
        pipeline._status = PipelineStatus(payload["status"])
        if pipeline._status is PipelineStatus.RUNNING:
            pipeline._awaited = TaskKind.MPNN_GENERATE
        pipeline._cycle = payload["cycle"]
        pipeline._complex = decode_complex(payload["complex"], target.complex)
        pipeline._previous_metrics = decode_metrics(payload["previous_metrics"])
        pipeline._cycle_results = [
            decode_cycle_result(cycle) for cycle in payload["cycle_results"]
        ]
        pipeline._cycle_trajectories = [
            decode_trajectory(trajectory) for trajectory in payload["trajectories"]
        ]
        decode_rng_state(pipeline._rng, payload["rng_state"])
        return pipeline


#: Each stage task's kind value and resource request, which depend on its
#: kind alone (``Pipeline._task``).
_KIND_FIELDS = {kind: (kind.value, request_for(kind)) for kind in TaskKind}

#: Each stage's task builder (``Pipeline.pending_task``) and its handler
#: (``Pipeline.advance``), by the kind of its task.
_STAGE_TASKS = {
    TaskKind.MPNN_GENERATE: Pipeline._generation_task,
    TaskKind.SEQUENCE_RANK: Pipeline._ranking_task,
    TaskKind.SEQUENCE_SELECT: Pipeline._selection_task,
    TaskKind.AF_MSA: Pipeline._msa_task,
    TaskKind.AF_INFERENCE: Pipeline._inference_task,
    TaskKind.SCORING: Pipeline._scoring_task,
    TaskKind.COMPARE: Pipeline._compare_task,
}
_STAGE_HANDLERS = {
    TaskKind.MPNN_GENERATE: Pipeline._on_generation,
    TaskKind.SEQUENCE_RANK: Pipeline._on_ranking,
    TaskKind.SEQUENCE_SELECT: Pipeline._on_selection,
    TaskKind.AF_MSA: Pipeline._on_msa,
    TaskKind.AF_INFERENCE: Pipeline._on_inference,
    TaskKind.SCORING: Pipeline._on_scoring,
    TaskKind.COMPARE: Pipeline._on_compare,
}
