"""The control implementation (CONT-V): non-adaptive, sequential, no pilot.

The paper's baseline runs the same stages as IM-RP but

* executes everything **sequentially** (one task at a time, no middleware),
* evaluates the four starting structures inside a **single pipeline**,
* selects the evaluated sequence **at random** from the generated set, and
* never compares against the previous iteration nor prunes deteriorating
  trajectories.

:class:`ControlProtocol` reproduces that behaviour on the same simulated
platform and with the same surrogate models as the adaptive implementation,
so that quality and utilization differences are attributable to the protocol
and execution model alone.

Since the checkpointing refactor the control is a **cycle-granular stepping
engine**: :meth:`ControlProtocol.step_cycle` advances exactly one design
cycle of the current target and stops at the quiescent boundary (no task in
flight; the pipeline's outstanding generation task is rebuilt by
:meth:`~repro.core.pipeline.Pipeline.pending_task`), where
:meth:`snapshot` / :meth:`restore` serialise and rebuild the whole execution
— per-target pipeline state, captured RNG streams, the simulated clock and
the profiler traces — exactly.  :meth:`run` is the run-to-completion wrapper
(``begin`` + ``step_cycle`` until drained) and behaves precisely as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.decision import AcceptancePolicy
from repro.core.instrumentation import record_cycle_metrics, record_stage_metrics
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus
from repro.core.results import PipelineRecord
from repro.core.snapshot import (
    encode_phase_interval,
    encode_resource_interval,
    restore_profiler,
)
from repro.core.stages import StageFactory
from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import CampaignError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import PlatformSpec
from repro.protein.datasets import DesignTarget
from repro.runtime.durations import DurationModel
from repro.runtime.sequential import SequentialRunner

__all__ = ["ControlConfig", "ControlProtocol"]


@dataclass(frozen=True)
class ControlConfig:
    """Parameters of the control run.

    Attributes
    ----------
    n_cycles:
        Design cycles per structure (4 in the paper).
    n_sequences:
        Sequences generated by ProteinMPNN per cycle (10 in the paper).
    selection_seed:
        Seed of the random-selection stream.
    random_selection:
        Select the evaluated sequence at random (the paper's control) or take
        the top-ranked one (the ``cont-v-ranked`` ablation).
    """

    n_cycles: int = 4
    n_sequences: int = 10
    selection_seed: int = 0
    random_selection: bool = True


class ControlProtocol:
    """Runs the CONT-V baseline over a set of targets, one cycle at a time."""

    #: Logical pipeline uid used in reports — CONT-V is a single pipeline
    #: processing every structure sequentially, which is how Table I counts it.
    PIPELINE_UID = "contv.pipeline.0001"

    def __init__(
        self,
        platform: ComputePlatform,
        factory: StageFactory,
        durations: DurationModel,
        config: Optional[ControlConfig] = None,
    ) -> None:
        self._platform = platform
        self._factory = factory
        self._config = config or ControlConfig()
        self._runner = SequentialRunner(platform, durations)
        self._targets: List[DesignTarget] = []
        self._per_target_pipelines: Dict[str, Pipeline] = {}
        self._started = False
        self._finished = False
        # Snapshot encodings that can never change again: finished pipelines
        # (by target name) and the append-only profiler traces, encoded once.
        self._finished_snapshots: Dict[str, dict] = {}
        self._resource_encodings: List[dict] = []
        self._phase_encodings: List[dict] = []

    @property
    def config(self) -> ControlConfig:
        return self._config

    @property
    def runner(self) -> SequentialRunner:
        return self._runner

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def n_cycles_completed(self) -> int:
        """Completed design cycles across every target processed so far."""
        return sum(
            len(pipeline.cycle_results)
            for pipeline in self._per_target_pipelines.values()
        )

    # -- lifecycle ---------------------------------------------------------------- #

    def begin(self, targets: List[DesignTarget]) -> None:
        """Register the target list and arm the stepping loop (call once)."""
        if self._started:
            raise CampaignError("a ControlProtocol instance can only run once")
        if not targets:
            raise CampaignError("control run needs at least one target")
        self._targets = list(targets)
        self._started = True

    def run(self, targets: List[DesignTarget]) -> List[PipelineRecord]:
        """Execute the control protocol over ``targets`` and return records.

        The four (or N) structures are processed one after another inside
        one logical pipeline; each structure goes through ``n_cycles`` design
        cycles with random sequence selection and no pruning.
        """
        self.begin(targets)
        while not self.step_cycle():
            pass
        return self.records()

    # -- cycle-granular stepping ----------------------------------------------- #

    def _pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(
            n_cycles=self._config.n_cycles,
            n_sequences=self._config.n_sequences,
            max_retries=1,
            adaptive=False,
            random_selection=self._config.random_selection,
            acceptance=AcceptancePolicy(),
            selection_seed=self._config.selection_seed,
        )

    def _build_pipeline(self, target: DesignTarget) -> Pipeline:
        return Pipeline(
            uid=f"{self.PIPELINE_UID}.{target.name}",
            target=target,
            factory=self._factory,
            config=self._pipeline_config(),
        )

    def _current_target(self) -> Optional[DesignTarget]:
        """The first target whose pipeline has not finished, in sweep order."""
        for target in self._targets:
            pipeline = self._per_target_pipelines.get(target.name)
            if pipeline is None or not pipeline.is_finished:
                return target
        return None

    def step_cycle(self) -> bool:
        """Advance the campaign by exactly one design cycle.

        Drives the current target's pipeline task-by-task until it reports a
        completed cycle (or finishes), then stops at the quiescent boundary.
        The next cycle's generation task is *not* run: it stays outstanding
        in the pipeline, and the next step rebuilds it with
        :meth:`~repro.core.pipeline.Pipeline.pending_task`, which is what
        makes the boundary serialisable.

        Returns ``True`` when every target has finished.
        """
        if not self._started:
            raise CampaignError("call begin(targets) before step_cycle()")
        if self._finished:
            return True
        target = self._current_target()
        if target is None:
            self._finished = True
            return True

        pipeline = self._per_target_pipelines.get(target.name)
        if pipeline is None:
            pipeline = self._build_pipeline(target)
            self._per_target_pipelines[target.name] = pipeline
            description = pipeline.start()
        else:
            description = pipeline.pending_task()

        wall_start = time.perf_counter()
        stage_seconds: Dict[str, float] = {}
        completed_result = None
        while description is not None:
            task = self._runner.run_task(description)
            if task.start_time is not None and task.end_time is not None:
                stage_seconds[task.kind] = stage_seconds.get(task.kind, 0.0) + (
                    task.end_time - task.start_time
                )
            step = pipeline.advance(task)
            completed_result = step.completed_cycle
            if completed_result is not None:
                break
            description = step.task
        if completed_result is not None:
            # Out-of-band per-cycle metrics at the quiescent boundary: no-op
            # unless a telemetry writer is active in this process.
            record_cycle_metrics(
                completed_result,
                wall_seconds=time.perf_counter() - wall_start,
                protocol="sequential",
            )
            record_stage_metrics(
                stage_seconds,
                target=target.name,
                cycle=completed_result.cycle,
                protocol="sequential",
            )

        if self._current_target() is None:
            self._finished = True
        return self._finished

    # -- suspend / resume ------------------------------------------------------- #

    def snapshot(self) -> dict:
        """Serialise the whole control execution at the current boundary.

        Captures the simulated clock, the profiler traces and every started
        pipeline's cross-cycle state; :meth:`restore` rebuilds an execution
        that continues bit-identically to one that was never suspended.

        The cost is the work since the previous snapshot: a finished
        pipeline never changes again and the profiler traces are
        append-only, so both are encoded once and their encodings reused;
        only the unfinished pipeline is encoded afresh.  Each payload owns
        its top-level dicts and interval lists, so a later step never grows
        or edits an earlier payload.  The leaf encodings are shared between
        payloads, which is safe only while nothing mutates a returned
        payload — callers (checkpoint saves, state observers) only read and
        serialise it.
        """
        profiler = self._platform.profiler
        self._resource_encodings.extend(
            encode_resource_interval(interval)
            for interval in profiler.resource_intervals[len(self._resource_encodings):]
        )
        self._phase_encodings.extend(
            encode_phase_interval(interval)
            for interval in profiler.phase_intervals[len(self._phase_encodings):]
        )
        pipelines = {}
        for name, pipeline in self._per_target_pipelines.items():
            encoded = self._finished_snapshots.get(name)
            if encoded is None:
                encoded = pipeline.snapshot()
                if pipeline.is_finished:
                    self._finished_snapshots[name] = encoded
            pipelines[name] = encoded
        return {
            "now": self._platform.now,
            "profiler": {
                "resource_intervals": list(self._resource_encodings),
                "phase_intervals": list(self._phase_encodings),
            },
            "finished": self._finished,
            "pipelines": pipelines,
        }

    @classmethod
    def restore(
        cls,
        platform_spec: Optional[PlatformSpec],
        factory: StageFactory,
        durations: DurationModel,
        config: ControlConfig,
        targets: List[DesignTarget],
        payload: dict,
    ) -> "ControlProtocol":
        """Rebuild a suspended control execution from :meth:`snapshot` output.

        ``targets``, ``factory`` and ``durations`` are rebuilt by the caller
        from the declarative run spec; the payload carries only the evolving
        state.  The simulated clock is advanced to the captured time (no
        events are pending at a boundary) and the profiler traces are
        replayed in recording order.
        """
        platform = ComputePlatform(platform_spec)
        platform.loop.run_until(payload["now"])
        restore_profiler(platform.profiler, payload["profiler"])
        control = cls(platform, factory, durations, config)
        control.begin(targets)
        control._finished = payload["finished"]
        pipeline_config = control._pipeline_config()
        for target in targets:  # preserve sweep order in the pipelines dict
            snapshot = payload["pipelines"].get(target.name)
            if snapshot is None:
                continue
            control._per_target_pipelines[target.name] = Pipeline.restore_snapshot(
                snapshot, target, factory, pipeline_config
            )
        return control

    # -- results ----------------------------------------------------------------- #

    def records(self) -> List[PipelineRecord]:
        """A single merged pipeline record, as Table I counts CONT-V.

        The per-target state machines are internal; externally CONT-V is one
        pipeline whose cycles and trajectories span every starting structure.
        """
        if not self._per_target_pipelines:
            return []
        cycles: List[CycleResult] = []
        trajectories: List[Trajectory] = []
        statuses = []
        for pipeline in self._per_target_pipelines.values():
            cycles.extend(pipeline.cycle_results)
            trajectories.extend(pipeline.trajectories)
            statuses.append(pipeline.status)
        status = (
            PipelineStatus.COMPLETED
            if all(value is PipelineStatus.COMPLETED for value in statuses)
            else PipelineStatus.FAILED
        )
        record = PipelineRecord(
            uid=self.PIPELINE_UID,
            target=",".join(sorted(self._per_target_pipelines)),
            parent_uid=None,
            status=status,
            cycles=cycles,
            trajectories=trajectories,
        )
        return [record]
