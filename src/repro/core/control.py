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
:meth:`snapshot` serialises the whole execution — per-target pipeline
state, captured RNG streams, the simulated clock and the profiler traces —
and :meth:`restore` rebuilds it exactly, in a control that has not stepped.
The campaign's stepping loop
(:meth:`~repro.core.campaign.DesignCampaign.run_stepwise`) drives it one
cycle per step, as it drives the IM-RP coordinator's
:meth:`~repro.core.coordinator.PipelinesCoordinator.step_cycle`; only the
control's boundary has a snapshot codec.

Targets start in sweep order, each once the previous target's pipeline has
finished.  A step therefore finds its target from the last-started pipeline
and keeps the completed-cycle count as a counter, so its bookkeeping does not
grow with the number of targets.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.instrumentation import record_cycle_metrics, record_stage_metrics
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus, StageModels
from repro.core.results import PipelineRecord
from repro.core.snapshot import restore_profiler
from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import CampaignError, ConfigurationError
from repro.hpc.platform import ComputePlatform
from repro.protein.datasets import DesignTarget
from repro.runtime.durations import DurationModel
from repro.runtime.sequential import SequentialRunner

__all__ = ["ControlProtocol"]


class ControlProtocol:
    """Runs the CONT-V baseline over a set of targets, one cycle at a time.

    :class:`~repro.core.campaign.DesignCampaign` builds it for a
    ``sequential`` protocol row, in one place: a fresh control starts the
    run, and a resume builds the same fresh control and restores a saved
    boundary into it (:meth:`restore`) before its first step.
    """

    #: Logical pipeline uid used in reports — CONT-V is a single pipeline
    #: processing every structure sequentially, which is how Table I counts it.
    PIPELINE_UID = "contv.pipeline.0001"

    def __init__(
        self,
        platform: ComputePlatform,
        models: StageModels,
        durations: DurationModel,
        config: PipelineConfig,
        targets: List[DesignTarget],
    ) -> None:
        """``config`` is every target's pipeline configuration.

        It must be non-adaptive: every cycle is then accepted, so its
        retry budget, acceptance policy and adaptivity schedule never change
        an outcome, a task name or a snapshot.  ``targets`` are processed in
        order, one pipeline each.
        """
        if config.adaptive:
            raise ConfigurationError(
                "the control runs without adaptivity; got an adaptive pipeline config"
            )
        if not targets:
            raise CampaignError("control run needs at least one target")
        if len({target.name for target in targets}) != len(targets):
            raise CampaignError("design target names must be unique")
        self._platform = platform
        self._models = models
        self._config = config
        self._runner = SequentialRunner(platform, durations)
        self._targets = list(targets)
        self._per_target_pipelines: Dict[str, Pipeline] = {}
        self._cycles_completed = 0
        # Snapshot encodings of finished pipelines (by target name), which can
        # never change again, encoded once.
        self._finished_snapshots: Dict[str, dict] = {}

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    @property
    def n_cycles_completed(self) -> int:
        """Completed design cycles across every target processed so far.

        A counter: :meth:`step_cycle` adds each cycle it completes, and
        :meth:`restore` sets it from the restored pipelines.
        """
        return self._cycles_completed

    # -- cycle-granular stepping ----------------------------------------------- #

    def _build_pipeline(self, target: DesignTarget) -> Pipeline:
        return Pipeline(
            uid=f"{self.PIPELINE_UID}.{target.name}",
            target=target,
            models=self._models,
            config=self._config,
        )

    def _current_target(self) -> Optional[DesignTarget]:
        """The first target whose pipeline has not finished, in sweep order.

        Every started pipeline but the last-started one has finished, so
        that is the last-started target while its pipeline runs, and
        otherwise the next target not yet started.
        """
        started = len(self._per_target_pipelines)
        if started:
            target = self._targets[started - 1]
            if not self._per_target_pipelines[target.name].is_finished:
                return target
        return self._targets[started] if started < len(self._targets) else None

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
        target = self._current_target()
        if target is None:
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
            self._cycles_completed += 1
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
        return self._current_target() is None

    # -- suspend / resume ------------------------------------------------------- #

    def snapshot(self) -> dict:
        """Serialise the whole control execution at the current boundary.

        Captures the simulated clock, the profiler's resource rows and phase
        totals, and every started pipeline's cross-cycle state;
        :meth:`restore` rebuilds an execution that continues bit-identically
        to one that was never suspended.

        It is called when a state is saved (``CampaignState.as_dict``), not
        at every step.  The cost is the work since the previous snapshot: a
        finished pipeline never changes again, so it is encoded once and its
        encoding reused, and the profiler's rows are immutable and are their
        own encoding; only the unfinished pipeline, and any finished since
        the previous snapshot, is encoded afresh.  Each payload owns its
        top-level dicts and row list, so a later step never grows or edits
        an earlier payload.  Finished pipelines' encodings are shared
        between payloads, which is safe only while nothing mutates a
        returned payload — its one caller only serialises it.
        """
        profiler = self._platform.profiler
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
                "resource_intervals": profiler.resource_intervals,
                "phase_totals": profiler.phase_totals(),
            },
            "pipelines": pipelines,
        }

    def restore(self, payload: dict) -> None:
        """Restore a suspended execution from :meth:`snapshot` output.

        The control is built as a fresh one is, from the declarative run
        spec, and must not have stepped; the payload carries only the
        evolving state.  The simulated clock is advanced to the captured
        time (no events are pending at a boundary) and the profiler's rows
        and phase totals are replayed.

        The payload's pipelines must be those of the first targets in sweep
        order, each but the last finished, as a stepped control holds them:
        one that skips a target raises ``KeyError``, and one that starts a
        target before the previous one finished raises
        :class:`CampaignError`.  A control that has stepped or was restored
        already raises :class:`CampaignError`.
        """
        if self._per_target_pipelines:
            raise CampaignError(
                "a control restores only before its first step; this one "
                f"has started {len(self._per_target_pipelines)} pipeline(s)"
            )
        self._platform.loop.run_until(payload["now"])
        restore_profiler(self._platform.profiler, payload["profiler"])
        snapshots = payload["pipelines"]
        previous: Optional[Pipeline] = None
        for target in self._targets[:len(snapshots)]:  # sweep order, as started
            if previous is not None and not previous.is_finished:
                raise CampaignError(
                    f"control payload starts {target.name} before the previous "
                    "target's pipeline finished"
                )
            previous = Pipeline.restore_snapshot(
                snapshots[target.name], target, self._models, self._config
            )
            self._per_target_pipelines[target.name] = previous
            self._cycles_completed += len(previous.cycle_results)

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
