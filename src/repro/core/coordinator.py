"""The IMPRESS pipelines coordinator (the IM-RP execution path).

The coordinator is the component marked 1/3/6/7 in the paper's Fig 1: it

* constructs pipelines (one per starting structure, as in the paper's
  implementation section),
* submits their tasks concurrently to the pilot runtime and hears of their
  completion through the task manager's completion callback,
* maintains a global view of every pipeline's latest design quality, and
* performs the decision-making step after every completed cycle, dynamically
  generating sub-pipelines for designs that need further refinement or
  re-exploration and offloading them onto idle resources.

Everything is event-driven: the coordinator reacts to task-completion
callbacks from the task manager, so any number of pipelines make progress
concurrently within the simulated platform's event loop.  The campaign
drives that loop one design cycle at a time through
:meth:`PipelinesCoordinator.step_cycle`, as it steps the control.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Union

from repro.core.decision import SubPipelinePolicy, SubPipelineSpec
from repro.core.instrumentation import record_cycle_metrics
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus, StageModels
from repro.core.results import PipelineRecord
from repro.core.trajectory import CycleResult
from repro.exceptions import CoordinatorError
from repro.hpc.platform import ComputePlatform
from repro.protein.datasets import DesignTarget
from repro.protein.metrics import composite_score
from repro.runtime.task import Task
from repro.runtime.task_manager import TaskManager
from repro.telemetry import metrics

__all__ = [
    "AUTO_IN_FLIGHT",
    "AdaptiveInFlightController",
    "PipelinesCoordinator",
]

#: Sentinel value of ``max_in_flight_pipelines`` selecting the adaptive
#: utilization-driven controller instead of a static cap.
AUTO_IN_FLIGHT = "auto"

#: The adaptive controller's starting cap, the trailing window of simulated
#: seconds its busy fraction covers, and the busy fraction below which it
#: raises the cap.
_AUTO_INITIAL_CAP = 1
_AUTO_WINDOW_SECONDS = 600.0
_AUTO_TARGET_UTILIZATION = 0.90


class AdaptiveInFlightController:
    """Retunes the root-pipeline cap from observed simulated busy fraction.

    The observe→decide loop in its smallest form: the cap starts at 1;
    after every completed design cycle the controller reads the platform
    profiler's CPU/GPU busy fraction over the trailing 600 s of *simulated*
    time and, while root pipelines are still waiting and the platform is
    under 90% busy, raises the cap by one — converging on the smallest cap
    that saturates the platform instead of requiring the static ablation
    sweep up front.

    Every input is deterministic (simulated clock, profiler traces), so two
    executions of the same spec make identical decisions regardless of the
    worker or wall-clock speed; each decision is emitted as an out-of-band
    ``coordinator.max_in_flight`` gauge for auditing, and nothing else keeps
    the trail.
    """

    def __init__(self, platform: ComputePlatform) -> None:
        self._platform = platform
        self.cap = _AUTO_INITIAL_CAP

    def busy_fraction(self) -> float:
        """Peak of CPU/GPU utilization over the trailing window (0 when idle)."""
        now = self._platform.now
        start = max(0.0, now - _AUTO_WINDOW_SECONDS)
        if now <= start:
            return 0.0
        profiler = self._platform.profiler
        window = (start, now)
        return max(
            profiler.cpu_utilization(window=window),
            profiler.gpu_utilization(window=window),
        )

    def retune(self, pending_roots: int) -> bool:
        """One decision step; returns True when the cap was raised."""
        busy = self.busy_fraction()
        raised = pending_roots > 0 and busy < _AUTO_TARGET_UTILIZATION
        if raised:
            self.cap += 1
        metrics.gauge(
            "coordinator.max_in_flight",
            self.cap,
            busy_fraction=busy,
            pending_roots=pending_roots,
            decision="raise" if raised else "hold",
            sim_time=self._platform.now,
        )
        return raised


class PipelinesCoordinator:
    """Coordinates concurrent, adaptive pipelines through a task manager.

    Parameters
    ----------
    pipeline_config:
        The configuration of every root pipeline.
    spawn_policy:
        When and how to generate sub-pipelines.
    max_in_flight_pipelines:
        Optional cap on concurrently executing *root* pipelines; additional
        root pipelines wait in the submission queue until a slot frees up.
        Sub-pipelines always start immediately (they are the mechanism that
        soaks up idle resources).  The string ``"auto"`` replaces the static
        cap with an :class:`AdaptiveInFlightController`: the cap starts at 1
        and is retuned after every completed cycle from the simulated
        platform's busy fraction over a sliding window — a deterministic
        function of the simulation, so seeded runs stay byte-identical
        across workers and resumes.
    """

    def __init__(
        self,
        task_manager: TaskManager,
        models: StageModels,
        pipeline_config: PipelineConfig,
        spawn_policy: Optional[SubPipelinePolicy] = None,
        max_in_flight_pipelines: Union[int, str, None] = None,
    ) -> None:
        self._task_manager = task_manager
        self._models = models
        self._pipeline_config = pipeline_config
        self._spawn_policy = spawn_policy or SubPipelinePolicy()
        self._max_in_flight = max_in_flight_pipelines
        self._launched = False
        self._cycles_completed = 0
        self._last_cycle_wall = time.perf_counter()

        limit = max_in_flight_pipelines
        if isinstance(limit, str) and limit != AUTO_IN_FLIGHT:
            raise CoordinatorError(
                f"max_in_flight_pipelines must be a positive int, None or "
                f"{AUTO_IN_FLIGHT!r}, got {limit!r}"
            )
        self._adaptive: Optional[AdaptiveInFlightController] = (
            AdaptiveInFlightController(task_manager.platform)
            if limit == AUTO_IN_FLIGHT
            else None
        )

        self._pipelines: Dict[str, Pipeline] = {}
        #: Latest composite per pipeline with metrics; metrics change only at
        #: a completed cycle (``_decision_step``) or at spawn, so those two
        #: places keep this in step with ``Pipeline.latest_metrics``.
        self._composites: Dict[str, float] = {}
        self._root_of: Dict[str, str] = {}
        self._spawned_per_root: Dict[str, int] = {}
        self._total_spawned = 0
        self._uid_counter = itertools.count(1)

        #: New pipeline instances awaiting submission, oldest first.
        self._submissions: Deque[Pipeline] = deque()

        self._in_flight_roots = 0

    # -- pipeline construction --------------------------------------------------- #

    @property
    def platform(self) -> ComputePlatform:
        return self._task_manager.platform

    @property
    def n_cycles_completed(self) -> int:
        """Design cycles completed so far, across every pipeline."""
        return self._cycles_completed

    def _current_limit(self) -> Optional[int]:
        """The in-flight root cap in force right now (None = unlimited)."""
        if self._adaptive is not None:
            return self._adaptive.cap
        limit = self._max_in_flight
        return limit if isinstance(limit, int) else None

    def add_targets(self, targets: List[DesignTarget]) -> None:
        """Create one root pipeline per target and queue them for submission."""
        for target in targets:
            uid = f"pipeline.{next(self._uid_counter):04d}.{target.name}"
            pipeline = Pipeline(
                uid=uid,
                target=target,
                models=self._models,
                config=self._pipeline_config,
            )
            self._pipelines[uid] = pipeline
            self._root_of[uid] = uid
            self._submissions.append(pipeline)

    # -- execution ------------------------------------------------------------------ #

    def step_cycle(self) -> bool:
        """Advance the simulation by exactly one design cycle.

        The first call launches the root pipelines.  A call returns right
        after the event that completes a cycle (of any pipeline), with the
        other pipelines' tasks still in flight, or once the simulation drains
        without completing one.

        Returns ``True`` when the simulation has drained, i.e. every
        pipeline has finished.
        """
        if not self._pipelines:
            raise CoordinatorError("no pipelines were added to the coordinator")
        cycles = self._cycles_completed
        # Completed tasks flow back through this callback, the coordinator's
        # only reference to a finished task.  Registered, it closes a cycle
        # (coordinator -> task manager -> agent -> callback), so it lives for
        # this call only and a campaign is freed by refcount between steps.
        detach = self._task_manager.register_callback(self._on_task_state)
        try:
            if not self._launched:
                self._launched = True
                self._launch_pending_roots()
            # Task completion callbacks keep feeding new tasks in, so a
            # drained loop means every pipeline has finished (or failed).
            self._task_manager.platform.loop.run(
                until=lambda: self._cycles_completed != cycles
            )
        finally:
            detach()
        if self._cycles_completed != cycles:
            return False
        unfinished = [
            pipeline.uid
            for pipeline in self._pipelines.values()
            if not pipeline.is_finished and pipeline.status is not PipelineStatus.PENDING
        ]
        if unfinished:
            raise CoordinatorError(
                f"simulation drained with unfinished pipelines: {unfinished}"
            )
        # Pending root pipelines can remain only if the in-flight cap was never
        # released, which would be a coordinator bug.
        still_pending = [
            pipeline.uid
            for pipeline in self._pipelines.values()
            if pipeline.status is PipelineStatus.PENDING
        ]
        if still_pending:
            raise CoordinatorError(
                f"pipelines never launched: {still_pending}"
            )
        return True

    def _launch_pending_roots(self) -> None:
        limit = self._current_limit()
        while self._submissions:
            if limit is not None and self._in_flight_roots >= limit:
                break
            pipeline = self._submissions.popleft()
            self._submit_pipeline(pipeline)
            if not pipeline.is_subpipeline:
                self._in_flight_roots += 1

    def _submit_pipeline(self, pipeline: Pipeline) -> None:
        self._task_manager.submit_tasks(pipeline.start())

    # -- task routing ------------------------------------------------------------------ #

    def _on_task_state(self, task: Task) -> None:
        # Only this coordinator submits to its task manager, and a finished
        # pipeline has no task in flight (``advance`` refuses one).
        pipeline = self._pipelines[task.metadata["pipeline_uid"]]
        step = pipeline.advance(task)
        if step.task is not None:
            self._task_manager.submit_tasks(step.task)
        if step.completed_cycle is not None:
            self._decision_step(pipeline, step.completed_cycle)
            self._cycles_completed += 1
            now = time.perf_counter()
            record_cycle_metrics(
                step.completed_cycle,
                wall_seconds=now - self._last_cycle_wall,
                protocol="pilot",
            )
            self._last_cycle_wall = now
            if self._adaptive is not None and self._adaptive.retune(
                len(self._submissions)
            ):
                # A raised cap frees slots immediately — launch into them
                # instead of waiting for the next pipeline to finish.
                self._launch_pending_roots()
        if pipeline.is_finished:
            self._on_pipeline_finished(pipeline)

    def _on_pipeline_finished(self, pipeline: Pipeline) -> None:
        if not pipeline.is_subpipeline and self._in_flight_roots > 0:
            self._in_flight_roots -= 1
        self._launch_pending_roots()

    # -- the decision-making step --------------------------------------------------------- #

    def _record_composite(self, pipeline: Pipeline) -> None:
        metrics = pipeline.latest_metrics
        if metrics is not None:
            self._composites[pipeline.uid] = composite_score(metrics)

    def _decision_step(self, pipeline: Pipeline, cycle_result: CycleResult) -> None:
        """Global decision-making after one completed cycle (paper step 6/7)."""
        root_uid = self._root_of[pipeline.uid]
        self._record_composite(pipeline)
        spec = self._spawn_policy.should_spawn(
            pipeline_uid=pipeline.uid,
            target_name=pipeline.target.name,
            latest_metrics=cycle_result.best_metrics,
            cycle_accepted=cycle_result.accepted,
            cohort_median_composite=SubPipelinePolicy.cohort_median(self._composites),
            spawned_for_pipeline=self._spawned_per_root.get(root_uid, 0),
            spawned_total=self._total_spawned,
        )
        if spec is None:
            return
        self._spawn_subpipeline(pipeline, spec, root_uid)

    def _spawn_subpipeline(
        self, parent: Pipeline, spec: SubPipelineSpec, root_uid: str
    ) -> Pipeline:
        self._total_spawned += 1
        uid = f"{parent.uid}.sub{self._total_spawned:03d}"
        # Sub-pipelines inherit the root configuration except for their cycle
        # budget; the adaptivity schedule is dropped because its length is
        # tied to the root's n_cycles.
        sub_config = dataclasses.replace(
            self._pipeline_config,
            n_cycles=spec.n_cycles,
            adaptivity_schedule=None,
        )
        starting_complex = (
            parent.current_complex if spec.start_from_best else parent.target.complex
        )
        subpipeline = Pipeline(
            uid=uid,
            target=parent.target,
            models=self._models,
            config=sub_config,
            parent_uid=parent.uid,
            starting_complex=starting_complex,
            starting_metrics=parent.latest_metrics,
        )
        self._pipelines[uid] = subpipeline
        self._record_composite(subpipeline)
        self._root_of[uid] = root_uid
        self._spawned_per_root[root_uid] = self._spawned_per_root.get(root_uid, 0) + 1
        # Sub-pipelines start immediately: they exist to exploit idle resources.
        self._submit_pipeline(subpipeline)
        return subpipeline

    # -- results ----------------------------------------------------------------------------- #

    def records(self) -> List[PipelineRecord]:
        """Per-pipeline records for the campaign result."""
        records: List[PipelineRecord] = []
        for pipeline in self._pipelines.values():
            records.append(
                PipelineRecord(
                    uid=pipeline.uid,
                    target=pipeline.target.name,
                    parent_uid=pipeline.parent_uid,
                    status=pipeline.status,
                    cycles=pipeline.cycle_results,
                    trajectories=pipeline.trajectories,
                )
            )
        return records
