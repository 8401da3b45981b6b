"""Top-level public API: :class:`DesignCampaign`.

A design campaign runs one execution protocol over a set of design targets on
a simulated HPC platform and returns a
:class:`~repro.core.results.CampaignResult` with both the scientific and the
computational outcomes.  The protocol (``"im-rp"``, ``"cont-v"`` or any other
registered :class:`~repro.core.protocols.ExecutionProtocol`) is resolved
through the protocol registry, so the campaign itself only builds the shared
models and duration model, delegates execution, and aggregates the result.
This is the entry point used by the examples, the experiments suite engine
and the benchmark harness:

>>> from repro.core.campaign import CampaignConfig, DesignCampaign
>>> from repro.protein.datasets import named_pdz_targets
>>> targets = named_pdz_targets(seed=7)
>>> campaign = DesignCampaign(targets, CampaignConfig(protocol="im-rp", seed=7))
>>> result = campaign.run()
>>> result.n_trajectories >= len(targets) * result.n_cycles
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.coordinator import AUTO_IN_FLIGHT
from repro.core.decision import AcceptancePolicy, SubPipelinePolicy
from repro.core.protocols import (
    CampaignState,
    ExecutionProtocol,
    ProtocolContext,
    ProtocolOutcome,
    available_protocols,
    get_protocol,
)
from repro.core.results import CampaignResult, PipelineRecord
from repro.core.stages import StageFactory, StageModels
from repro.exceptions import CampaignError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import PlatformSpec
from repro.hpc.scheduler import available_schedulers
from repro.protein.datasets import DesignTarget
from repro.protein.folding import MSA_MODES, FoldingConfig, SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics
from repro.protein.mpnn import MPNNConfig, SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.runtime.durations import DurationModel
from repro.utils.rng import derive_seed

__all__ = ["CampaignConfig", "CampaignState", "DesignCampaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one campaign run.

    Attributes
    ----------
    protocol:
        Name of a registered execution protocol — ``"im-rp"`` (adaptive,
        pilot runtime), ``"cont-v"`` (control, sequential execution), or any
        other key in :func:`repro.core.protocols.available_protocols`.
        Custom protocols must be registered before the config is built.
    n_cycles / n_sequences / max_retries:
        Protocol parameters (paper defaults: 4 / 10 / 10).
    seed:
        Root seed controlling every stochastic component.
    platform_spec:
        Simulated platform; defaults to one Amarel-like GPU node.
    scheduler_policy / backfill_window:
        Agent placement policy for pilot-runtime protocols ("fifo" or
        "backfill").
    max_in_flight_pipelines:
        Optional concurrency cap for the IM-RP coordinator (ablation knob).
        A positive int is a static cap; the string ``"auto"`` enables the
        utilization-adaptive controller (the cap starts at 1 and is retuned
        per completed cycle from simulated busy fraction — deterministic,
        so it participates in the run fingerprint like any other knob).
    adaptivity_schedule:
        Per-cycle adaptivity override (Fig 3 turns the last cycle off).
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
        schedulers = available_schedulers()
        if self.scheduler_policy not in schedulers:
            raise CampaignError(
                f"scheduler_policy must be one of {list(schedulers)}, "
                f"got {self.scheduler_policy!r}"
            )
        if self.msa_mode not in MSA_MODES:
            raise CampaignError(
                f"msa_mode must be one of {list(MSA_MODES)}, got {self.msa_mode!r}"
            )
        if self.n_cycles < 1 or self.n_sequences < 1 or self.max_retries < 1:
            raise CampaignError("n_cycles, n_sequences and max_retries must be >= 1")
        if self.duration_speedup <= 0:
            raise CampaignError("duration_speedup must be positive")
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

    The campaign owns the shared *science* of a run — surrogate models, stage
    factory and duration model, all seeded from the root seed — and delegates
    *execution* to the protocol registered under ``config.protocol``.
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
        self._platform: Optional[ComputePlatform] = None
        self._result: Optional[CampaignResult] = None
        self._protocol_instance: Optional[ExecutionProtocol] = None

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
                config=FoldingConfig(msa_mode=self._config.msa_mode),
                seed=derive_seed(seed, "folding"),
            ),
            scoring=ScoringFunction(),
        )
        self._factory = StageFactory(self._models, self._durations)

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
        """Execute as an explicit state machine: init → step\\* → finalize.

        ``resume_from`` continues a campaign from a restorable
        :class:`CampaignState` (typically reloaded from a checkpoint written
        by another process or worker): completed cycles are *not* re-executed
        and the finalized result is byte-identical to an uninterrupted run.
        ``on_state`` observes every post-step state (plus, for run-granular
        protocols, non-restorable mid-step progress states) — the hook the
        orchestration worker uses to stream one checkpoint per cycle.
        """
        if self._result is not None:
            return self._result
        protocol = self._protocol()
        # Snapshots are only serialised when someone is there to persist
        # them; an unobserved run() pays no per-cycle encoding.
        context = self._protocol_context(
            on_state, capture_snapshots=on_state is not None
        )
        if resume_from is not None:
            state = self._validated_resume(resume_from)
        else:
            state = protocol.init_state(context)
        while not state.done:
            state = protocol.step(context, state)
            if on_state is not None:
                on_state(state)
        return self.finalize_state(state)

    def init_state(self) -> CampaignState:
        """The campaign's pre-execution state (cycle 0, nothing in flight)."""
        return self._protocol().init_state(
            self._protocol_context(capture_snapshots=True)
        )

    def step(self, state: CampaignState) -> CampaignState:
        """Advance one checkpointable unit: ``step(state) -> state``.

        States returned by the explicit stepping API always carry a
        restorable snapshot (where the protocol supports one) — this is the
        checkpoint boundary.
        """
        return self._protocol().step(
            self._protocol_context(capture_snapshots=True), state
        )

    def finalize_state(self, state: CampaignState) -> CampaignResult:
        """Turn a terminal state into the campaign result (idempotent)."""
        if self._result is not None:
            return self._result
        baseline = self._baseline_metrics()
        protocol = self._protocol()
        outcome = protocol.finalize(self._protocol_context(), state)
        self._platform = outcome.platform
        self._result = self._build_result(protocol, outcome, baseline)
        return self._result

    def _protocol(self) -> ExecutionProtocol:
        if self._protocol_instance is None:
            self._protocol_instance = get_protocol(self._config.protocol)
        return self._protocol_instance

    def _validated_resume(self, state: CampaignState) -> CampaignState:
        if state.protocol != self._config.protocol or state.seed != self._config.seed:
            raise CampaignError(
                f"campaign state is for protocol {state.protocol!r} seed "
                f"{state.seed}, this campaign runs {self._config.protocol!r} "
                f"seed {self._config.seed}"
            )
        if state.done:
            # Finalizing needs the live execution or a payload to rebuild it.
            resumable = state.runtime is not None or state.payload is not None
        else:
            resumable = state.restorable and state.payload is not None
        if not resumable:
            raise CampaignError(
                "campaign state is a progress report, not a restorable "
                "checkpoint; re-run from the start instead"
            )
        return state

    def _protocol_context(
        self,
        on_state: Optional[Callable[[CampaignState], None]] = None,
        capture_snapshots: bool = False,
    ) -> ProtocolContext:
        on_progress = None
        if on_state is not None:

            def on_progress(cycle: int, cycles_total: Optional[int]) -> None:
                on_state(
                    CampaignState(
                        protocol=self._config.protocol,
                        seed=self._config.seed,
                        cycle=cycle,
                        cycles_total=cycles_total,
                        done=False,
                        restorable=False,
                        payload=None,
                    )
                )

        return ProtocolContext(
            config=self._config,
            targets=self._targets,
            factory=self._factory,
            durations=self._durations,
            on_progress=on_progress,
            capture_snapshots=capture_snapshots,
        )

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
        self,
        protocol: ExecutionProtocol,
        outcome: ProtocolOutcome,
        baseline: Dict[str, QualityMetrics],
    ) -> CampaignResult:
        records: List[PipelineRecord] = outcome.records
        profiler = self.platform.profiler
        makespan_seconds = profiler.makespan()
        total_task_seconds = sum(
            interval.duration for interval in profiler.resource_intervals
        )
        scale = self._config.duration_speedup  # report modelled (uncompressed) hours
        return CampaignResult(
            approach=protocol.approach,
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
            protocol=protocol.name,
        )
