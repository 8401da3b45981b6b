"""Top-level public API: :class:`DesignCampaign`.

A design campaign runs one execution protocol over a set of design targets on
a simulated HPC platform and returns a
:class:`~repro.core.results.CampaignResult` with both the scientific and the
computational outcomes.  The protocol (``"im-rp"``, ``"cont-v"`` or one of
their two ablations) is a row of the fixed table in
:mod:`repro.core.protocols`, looked up by name; the campaign builds the shared
models and duration model, builds, restores and steps the engine the row
calls for, and aggregates the result.  This is the entry point used by the
examples, the experiments suite engine and the benchmark harness:

>>> from repro.core.campaign import CampaignConfig, DesignCampaign
>>> from repro.protein.datasets import named_pdz_targets
>>> targets = named_pdz_targets(seed=7)
>>> campaign = DesignCampaign(targets, CampaignConfig(protocol="im-rp", seed=7))
>>> result = campaign.run()
>>> result.n_trajectories >= len(targets) * result.n_cycles
True
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.control import ControlProtocol
from repro.core.coordinator import AUTO_IN_FLIGHT, PipelinesCoordinator
from repro.core.decision import AcceptancePolicy, SubPipelinePolicy
from repro.core.pipeline import PipelineConfig, StageModels
from repro.core.protocols import CampaignState, available_protocols, get_protocol
from repro.core.results import CampaignResult, PipelineRecord
from repro.exceptions import CampaignError, ReproError, StoreError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import PlatformSpec, amarel_platform
from repro.hpc.scheduler import SCHEDULER_POLICIES, placement_window
from repro.protein.datasets import DesignTarget
from repro.protein.folding import MSA_MODES, SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics
from repro.protein.mpnn import MPNNConfig, SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.runtime.durations import DurationModel
from repro.runtime.task_manager import TaskManager
from repro.utils.rng import derive_seed

__all__ = ["CampaignConfig", "CampaignState", "DesignCampaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one campaign run.

    Attributes
    ----------
    protocol:
        Name of an execution protocol — ``"im-rp"`` (adaptive, pilot
        runtime), ``"cont-v"`` (control, sequential execution), or another
        key of :func:`repro.core.protocols.available_protocols`.
    n_cycles / n_sequences / max_retries:
        Protocol parameters (paper defaults: 4 / 10 / 10).
    seed:
        Root seed controlling every stochastic component.
    platform_spec:
        Simulated platform; defaults to one Amarel-like GPU node.
    scheduler_policy / backfill_window:
        Agent placement policy for pilot-runtime protocols ("fifo" or
        "backfill"), and backfill's lookahead past a blocked head of the
        queue (at least 1; "fifo" ignores it).  See
        :func:`repro.hpc.scheduler.placement_window`.
    max_in_flight_pipelines:
        Optional concurrency cap for the IM-RP coordinator (ablation knob).
        A positive int is a static cap; the string ``"auto"`` enables the
        utilization-adaptive controller (the cap starts at 1 and is retuned
        per completed cycle from simulated busy fraction — deterministic,
        so it participates in the run fingerprint like any other knob).
    adaptivity_schedule:
        Per-cycle adaptivity override (Fig 3 turns the last cycle off); one
        entry per cycle.
    acceptance / spawn_policy:
        Decision policies used by IM-RP pipelines and the coordinator.
    msa_mode:
        AlphaFold surrogate MSA mode (``"full_msa"`` or ``"single_sequence"``).
    mpnn_config:
        Optional override of the ProteinMPNN surrogate configuration.
    duration_speedup:
        Divisor applied to simulated task durations; relative quantities
        (utilization, speedups) are unaffected.
    """

    protocol: str = "im-rp"
    n_cycles: int = 4
    n_sequences: int = 10
    max_retries: int = 10
    seed: int = 0
    platform_spec: Optional[PlatformSpec] = None
    scheduler_policy: str = "fifo"
    backfill_window: int = 16
    max_in_flight_pipelines: Union[int, str, None] = None
    adaptivity_schedule: Optional[Tuple[bool, ...]] = None
    acceptance: AcceptancePolicy = field(default_factory=AcceptancePolicy)
    spawn_policy: SubPipelinePolicy = field(default_factory=SubPipelinePolicy)
    msa_mode: str = "full_msa"
    mpnn_config: Optional[MPNNConfig] = None
    duration_speedup: float = 1.0

    def __post_init__(self) -> None:
        protocols = available_protocols()
        if self.protocol not in protocols:
            raise CampaignError(
                f"unknown protocol {self.protocol!r}; available: {list(protocols)}"
            )
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise CampaignError(
                f"scheduler_policy must be one of {list(SCHEDULER_POLICIES)}, "
                f"got {self.scheduler_policy!r}"
            )
        if self.msa_mode not in MSA_MODES:
            raise CampaignError(
                f"msa_mode must be one of {list(MSA_MODES)}, got {self.msa_mode!r}"
            )
        if self.n_cycles < 1 or self.n_sequences < 1 or self.max_retries < 1:
            raise CampaignError("n_cycles, n_sequences and max_retries must be >= 1")
        schedule = self.adaptivity_schedule
        if schedule is not None and len(schedule) != self.n_cycles:
            raise CampaignError(
                f"adaptivity_schedule has {len(schedule)} entries, "
                f"n_cycles is {self.n_cycles}"
            )
        if not (math.isfinite(self.duration_speedup) and self.duration_speedup > 0):
            raise CampaignError(
                f"duration_speedup must be finite and positive, got {self.duration_speedup!r}"
            )
        cap = self.max_in_flight_pipelines
        if cap is not None:
            valid = (isinstance(cap, int) and cap >= 1) or cap == AUTO_IN_FLIGHT
            if not valid:
                raise CampaignError(
                    f"max_in_flight_pipelines must be a positive int, None or "
                    f"{AUTO_IN_FLIGHT!r}, got {cap!r}"
                )


class DesignCampaign:
    """Runs one execution protocol over a set of design targets.

    The campaign owns the shared *science* of a run — surrogate models and
    duration model, both seeded from the root seed — and its *execution*:
    the row of ``config.protocol`` says which engine runs the pipelines, and
    the campaign builds it (:meth:`engine`), steps it one design cycle at a
    time (:meth:`run_stepwise`) and reads the result from the finished
    engine.  A ``sequential`` row runs on the control, which a resume
    restores from a saved boundary; any other row runs on the pipelines
    coordinator over the pilot runtime, which is built at cycle 0 only.
    """

    def __init__(
        self, targets: List[DesignTarget], config: Optional[CampaignConfig] = None
    ) -> None:
        if not targets:
            raise CampaignError("a campaign needs at least one design target")
        names = [target.name for target in targets]
        if len(set(names)) != len(names):
            raise CampaignError("design target names must be unique")
        self._targets = list(targets)
        self._config = config or CampaignConfig()
        self._protocol = get_protocol(self._config.protocol)
        self._platform: Optional[ComputePlatform] = None
        self._result: Optional[CampaignResult] = None

        seed = self._config.seed
        self._durations = DurationModel(
            seed=derive_seed(seed, "durations"), speedup=self._config.duration_speedup
        )
        self._models = StageModels(
            mpnn=SurrogateProteinMPNN(
                config=self._config.mpnn_config or MPNNConfig(
                    n_sequences=self._config.n_sequences
                ),
                seed=derive_seed(seed, "mpnn"),
            ),
            folding=SurrogateAlphaFold(
                msa_mode=self._config.msa_mode, seed=derive_seed(seed, "folding")
            ),
            scoring=ScoringFunction(),
        )

    # -- accessors ------------------------------------------------------------------ #

    @property
    def config(self) -> CampaignConfig:
        return self._config

    @property
    def targets(self) -> List[DesignTarget]:
        return list(self._targets)

    @property
    def models(self) -> StageModels:
        return self._models

    @property
    def platform(self) -> ComputePlatform:
        """The simulated platform used by the run (available after :meth:`run`)."""
        if self._platform is None:
            raise CampaignError("the campaign has not been run yet")
        return self._platform

    @property
    def result(self) -> CampaignResult:
        if self._result is None:
            raise CampaignError("the campaign has not been run yet")
        return self._result

    # -- execution -------------------------------------------------------------------- #

    def run(self) -> CampaignResult:
        """Execute the campaign and return its result (idempotent)."""
        return self.run_stepwise()

    def run_stepwise(
        self,
        resume_from: Optional[CampaignState] = None,
        on_state: Optional[Callable[[CampaignState], None]] = None,
    ) -> CampaignResult:
        """Execute as an explicit state machine: init → step\\* → result.

        Every step is one design cycle, under every protocol, and encodes
        nothing.  ``resume_from`` continues a campaign from a saved
        :class:`CampaignState` (read back from a checkpoint written by
        another process or worker; a live state is refused): completed
        cycles are *not* re-executed and the finalized result is
        byte-identical to an uninterrupted run.  ``on_state`` observes every
        post-step state — the hook the orchestration worker uses to
        checkpoint restorable states and to hand every state's cycle to its
        heartbeat lease.  Each observed state's ``runtime`` is the live
        execution, which keeps stepping after the call, so a state is saved
        (its ``as_dict()`` encodes the snapshot) inside the call.  A step
        loop that ends by an exception drops the live execution's pending
        events before the exception propagates, so an abandoned run is freed
        by reference counting.
        """
        if self._result is not None:
            return self._result
        if resume_from is not None:
            state = self._validated_resume(resume_from)
        else:
            state = self._initial_state()
        try:
            while not state.done:
                engine = self.engine(state)
                finished = engine.step_cycle()
                state = dataclasses.replace(
                    state,
                    cycle=engine.n_cycles_completed,
                    done=finished,
                    payload=None,
                    runtime=engine,
                )
                if on_state is not None:
                    on_state(state)
        except BaseException:
            # An abandoned pilot run's pending events hold bound agent
            # methods, which tie the agent and its loop into a cycle; dropping
            # them lets reference counting free the run.
            if state.runtime is not None:
                state.runtime.platform.loop.clear()
            raise
        baseline = self._baseline_metrics()
        engine = self.engine(state)
        self._platform = engine.platform
        self._result = self._build_result(engine.records(), baseline)
        return self._result

    def engine(self, state: CampaignState) -> Union[ControlProtocol, PipelinesCoordinator]:
        """The live engine that steps ``state``: its ``runtime``, or one built for it.

        A ``sequential`` row builds a control, restored from the state's
        payload when it holds one; a payload that does not restore is a
        :class:`StoreError`, since the checkpoint, not the run, is at fault
        and a retry would fail the same way.  Any other row builds its
        pipelines coordinator at cycle 0 and refuses a later state with
        :class:`CampaignError`: the coordinator has no codec yet.
        """
        if state.runtime is not None:
            return state.runtime
        protocol, config = self._protocol, self._config
        if not protocol.sequential and (state.cycle or state.done):
            raise CampaignError(
                f"{protocol.name} cannot rebuild its execution at cycle "
                f"{state.cycle}; re-run from the start instead"
            )
        platform = ComputePlatform(config.platform_spec or amarel_platform(1))
        if protocol.sequential:
            control = ControlProtocol(
                platform, self._models, self._durations, self._pipeline_config(),
                self._targets,
            )
            if state.payload is not None:
                try:
                    control.restore(state.payload)
                except (LookupError, TypeError, ValueError, AttributeError, ReproError) as error:
                    raise StoreError(
                        f"{protocol.name} checkpoint payload at cycle {state.cycle} does "
                        f"not restore: {type(error).__name__}: {error}"
                    ) from error
            return control
        coordinator = PipelinesCoordinator(
            TaskManager(
                platform,
                self._durations,
                placement_window(config.scheduler_policy, config.backfill_window),
            ),
            self._models,
            self._pipeline_config(),
            config.spawn_policy,
            config.max_in_flight_pipelines,
        )
        coordinator.add_targets(self._targets)
        return coordinator

    def _initial_state(self) -> CampaignState:
        """The pre-execution state: cycle 0, nothing in flight.  A sequential
        row knows its total, one cycle per target and design cycle."""
        cycles_total = None
        if self._protocol.sequential:
            cycles_total = len(self._targets) * self._config.n_cycles
        return CampaignState(
            protocol=self._protocol.name,
            seed=self._config.seed,
            cycles_total=cycles_total,
        )

    def _pipeline_config(self) -> PipelineConfig:
        """Every pipeline's configuration: the campaign's protocol
        parameters, with adaptivity off for a sequential row."""
        config = self._config
        return PipelineConfig(
            n_cycles=config.n_cycles,
            n_sequences=config.n_sequences,
            max_retries=config.max_retries,
            adaptive=not self._protocol.sequential,
            random_selection=self._protocol.random_selection,
            acceptance=config.acceptance,
            adaptivity_schedule=config.adaptivity_schedule,
            selection_seed=derive_seed(config.seed, "selection"),
        )

    def _validated_resume(self, state: CampaignState) -> CampaignState:
        if state.protocol != self._config.protocol or state.seed != self._config.seed:
            raise CampaignError(
                f"campaign state is for protocol {state.protocol!r} seed "
                f"{state.seed}, this campaign runs {self._config.protocol!r} "
                f"seed {self._config.seed}"
            )
        if state.payload is None:
            raise CampaignError(
                "campaign state is not a restorable checkpoint read back from "
                "a save; re-run from the start instead"
            )
        return state

    def _baseline_metrics(self) -> Dict[str, QualityMetrics]:
        """Iteration-0 metrics: the folding surrogate applied to each native complex.

        These stand in for the AlphaFold assessment of the starting
        structures; they are computed outside the resource simulation because
        every protocol shares the same starting point and the paper's Table I
        compares design improvement against it.  The whole cohort folds
        through one :meth:`SurrogateAlphaFold.predict_batch` call (per-design
        RNG streams keep results identical to scalar ``predict`` calls).
        """
        results = self._models.folding.predict_batch(
            [target.complex for target in self._targets],
            [target.landscape for target in self._targets],
            [target.complex.receptor.sequence for target in self._targets],
            streams=[("baseline",)] * len(self._targets),
        )
        return {
            target.name: result.metrics
            for target, result in zip(self._targets, results)
        }

    def _build_result(
        self, records: List[PipelineRecord], baseline: Dict[str, QualityMetrics]
    ) -> CampaignResult:
        profiler = self.platform.profiler
        makespan_seconds = profiler.makespan()
        total_task_seconds = sum(
            interval.duration for interval in profiler.resource_intervals
        )
        scale = self._config.duration_speedup  # report modelled (uncompressed) hours
        return CampaignResult(
            approach=self._protocol.approach,
            targets=[target.name for target in self._targets],
            pipelines=records,
            baseline_metrics=baseline,
            makespan_hours=makespan_seconds * scale / 3600.0,
            total_task_hours=total_task_seconds * scale / 3600.0,
            cpu_utilization=profiler.cpu_utilization(),
            gpu_utilization=profiler.gpu_utilization(),
            phase_totals={
                phase: seconds * scale
                for phase, seconds in profiler.phase_totals(
                    ("bootstrap", "exec_setup", "running")
                ).items()
            },
            n_cycles=self._config.n_cycles,
            seed=self._config.seed,
            protocol=self._protocol.name,
        )
