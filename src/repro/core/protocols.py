"""Pluggable execution protocols and the protocol registry.

The paper's central object of study is the *execution protocol*: the same six
design stages can be driven adaptively over the asynchronous pilot runtime
(IM-RP) or sequentially without middleware (CONT-V).  This module makes the
protocol a first-class, string-keyed abstraction so that
:class:`~repro.core.campaign.DesignCampaign` stays a thin orchestrator and new
protocols (ablations, schedulers, runtimes) plug in without touching it:

>>> from repro.core.protocols import available_protocols
>>> {"im-rp", "cont-v"} <= set(available_protocols())
True

Built-in protocols
------------------
``im-rp``
    The paper's adaptive implementation: concurrent pipelines on the pilot
    runtime, top-ranked selection, accept/reject gating, sub-pipeline spawning.
``cont-v``
    The paper's control: sequential middleware-free execution, random
    selection, no adaptivity.
``im-rp-random``
    Ablation: the full pilot runtime and adaptive gating of IM-RP, but with
    the control's *random* sequence selection — isolates how much of IM-RP's
    quality gain comes from ranked selection versus the execution model.
``cont-v-ranked``
    Ablation: the control's sequential execution, but selecting the
    *top-ranked* sequence — the mirror image of ``im-rp-random``.

Custom protocols subclass :class:`ExecutionProtocol` and register through the
:func:`register_protocol` class decorator; ``CampaignConfig`` validates its
``protocol`` field against the registry at construction time, so plugins must
be registered (imported) before configs referencing them are built.

Cycle-granular execution
------------------------
Execution is an explicit state machine: ``execute`` is *defined* as
``init_state`` → ``step``\\* → ``finalize`` over a :class:`CampaignState`.
Each ``step(context, state) -> state`` advances one checkpointable unit and
— when the state is *restorable* — returns a JSON-able payload from which a
different process (or a different worker machine) can resume the run at the
last completed cycle, finishing byte-identical to an uninterrupted run.

The two built-in families differ in step granularity, and honestly so:

* **sequential protocols** (``cont-v`` family) have a quiescent point after
  every design cycle — no task in flight, the next generation task
  re-derivable — so every step is one cycle and every post-step state is a
  restorable checkpoint;
* **pilot protocols** (``im-rp`` family) interleave pipelines inside an
  asynchronous discrete-event simulation whose in-flight tasks carry Python
  closures; there is no quiescent cycle boundary to serialise, so the whole
  simulation is a single step.  Mid-run they report cycle *progress* (for
  status/ETA displays) through :attr:`ProtocolContext.on_progress`, and an
  interrupted run resumes by deterministic re-execution from the start —
  the determinism contract makes that re-execution exact, just not free.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.core.control import ControlConfig, ControlProtocol
from repro.core.coordinator import CoordinatorConfig, PipelinesCoordinator
from repro.core.pipeline import PipelineConfig
from repro.core.results import PipelineRecord
from repro.exceptions import CampaignError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import PlatformSpec, amarel_platform
from repro.runtime.agent import AgentConfig
from repro.runtime.task_manager import TaskManager
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.campaign import CampaignConfig
    from repro.core.stages import StageFactory
    from repro.protein.datasets import DesignTarget
    from repro.runtime.durations import DurationModel

__all__ = [
    "CampaignState",
    "ProtocolContext",
    "ProtocolOutcome",
    "ExecutionProtocol",
    "PilotRuntimeProtocol",
    "SequentialRuntimeProtocol",
    "register_protocol",
    "unregister_protocol",
    "available_protocols",
    "get_protocol",
]


@dataclass
class CampaignState:
    """One point on a campaign's execution ladder.

    Attributes
    ----------
    protocol / seed:
        Identity guard: a state may only resume the campaign it came from.
    cycle:
        Completed design cycles so far (the progress metric reported by
        queue status displays).
    cycles_total:
        Known total cycles, when the protocol can predict it (sequential
        protocols: ``n_targets * n_cycles``); ``None`` for protocols whose
        adaptive spawning makes the total emergent.
    done:
        Whether execution finished and :meth:`ExecutionProtocol.finalize`
        may run.
    restorable:
        Whether ``payload`` can rebuild execution at this boundary in a
        fresh process.  Non-restorable states are progress reports only —
        resuming from one means re-executing from the start (exactly, by the
        determinism contract).
    payload:
        JSON-able protocol snapshot (``None`` when not restorable).
    runtime:
        Live in-process objects carried between consecutive steps (never
        serialised; absent after a cross-process resume, in which case the
        protocol rebuilds them from ``payload``).
    """

    protocol: str
    seed: int
    cycle: int = 0
    cycles_total: Optional[int] = None
    done: bool = False
    restorable: bool = True
    payload: Optional[Dict[str, Any]] = None
    runtime: Any = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able rendering (drops the live ``runtime`` objects)."""
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "cycle": self.cycle,
            "cycles_total": self.cycles_total,
            "done": self.done,
            "restorable": self.restorable,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignState":
        try:
            return cls(
                protocol=payload["protocol"],
                seed=payload["seed"],
                cycle=payload["cycle"],
                cycles_total=payload["cycles_total"],
                done=payload["done"],
                restorable=payload["restorable"],
                payload=payload["payload"],
            )
        except (KeyError, TypeError) as error:
            raise CampaignError(
                f"malformed campaign state payload: {error}"
            ) from error


@dataclass
class ProtocolContext:
    """Everything a protocol needs to execute one campaign.

    The campaign builds the shared surrogates, stage factory and duration
    model once (they define the *science* of the run); the protocol decides
    only *how* the resulting tasks execute.
    """

    config: "CampaignConfig"
    targets: List["DesignTarget"]
    factory: "StageFactory"
    durations: "DurationModel"
    #: Optional mid-step progress hook ``(completed_cycles, cycles_total)``.
    #: Protocols whose step spans many cycles (the pilot family) call it per
    #: completed cycle so queue status displays see intra-run progress even
    #: where no restorable checkpoint exists.
    on_progress: Optional[Callable[[int, Optional[int]], None]] = None
    #: Whether stepping protocols should serialise a restorable snapshot
    #: into every post-step state.  Snapshots are what checkpointing
    #: consumes, but they cost a per-cycle encode of the current pipeline
    #: and keep a cache of the run's encodings in memory — an unobserved
    #: run-to-completion loop leaves this off and pays nothing the
    #: pre-state-machine ``execute`` didn't.
    capture_snapshots: bool = False

    @property
    def platform_spec(self) -> PlatformSpec:
        """The platform to simulate (defaults to one Amarel-like GPU node)."""
        return self.config.platform_spec or amarel_platform(1)

    @property
    def selection_seed(self) -> int:
        """Seed of the sequence-selection stream, derived from the root seed."""
        return derive_seed(self.config.seed, "selection")


@dataclass
class ProtocolOutcome:
    """What a protocol hands back to the campaign."""

    records: List[PipelineRecord]
    platform: ComputePlatform


class ExecutionProtocol(abc.ABC):
    """One way of executing a design campaign's pipelines.

    Subclasses set :attr:`name` (the registry key) and :attr:`approach` (the
    label reported in Table-I-style outputs) and implement either the
    stepping triple (:meth:`init_state` / :meth:`step` / :meth:`finalize`)
    or — for protocols that cannot be suspended mid-run — just
    :meth:`execute`, which the default :meth:`step` wraps as a single
    whole-run step.  The registry API is unchanged either way: callers that
    only ever wanted ``execute(context) -> ProtocolOutcome`` still get it.
    """

    #: Registry key, e.g. ``"im-rp"``.
    name: ClassVar[str]
    #: Human-readable approach label used in reports, e.g. ``"IM-RP"``.
    approach: ClassVar[str]
    #: One-line description shown by ``python -m repro.experiments --list-protocols``.
    summary: ClassVar[str] = ""

    def execute(self, context: ProtocolContext) -> ProtocolOutcome:
        """Run the campaign to completion: init → step\\* → finalize."""
        state = self.init_state(context)
        while not state.done:
            state = self.step(context, state)
        return self.finalize(context, state)

    def init_state(self, context: ProtocolContext) -> CampaignState:
        """The pre-execution state (cycle 0, nothing in flight)."""
        return CampaignState(protocol=self.name, seed=context.config.seed)

    def step(self, context: ProtocolContext, state: CampaignState) -> CampaignState:
        """Advance one checkpointable unit and return the successor state.

        The default implementation treats the subclass's :meth:`execute` as
        one indivisible step (run-granular checkpointing: the only resumable
        boundary is the start).  Stepping subclasses override this.
        """
        if type(self).execute is ExecutionProtocol.execute:
            raise CampaignError(
                f"protocol {self.name!r} implements neither step() nor execute()"
            )
        outcome = self.execute(context)
        return dataclasses.replace(
            state, done=True, restorable=False, payload=None, runtime=outcome
        )

    def finalize(
        self, context: ProtocolContext, state: CampaignState
    ) -> ProtocolOutcome:
        """Turn the terminal state into the campaign outcome."""
        if not state.done:
            raise CampaignError(
                f"protocol {self.name!r} cannot finalize an unfinished state "
                f"(cycle {state.cycle})"
            )
        if not isinstance(state.runtime, ProtocolOutcome):
            raise CampaignError(
                f"protocol {self.name!r} has no outcome to finalize; "
                "the terminal step must stash a ProtocolOutcome in the state"
            )
        return state.runtime

    def pipeline_config(
        self,
        context: ProtocolContext,
        *,
        adaptive: bool,
        random_selection: bool,
    ) -> PipelineConfig:
        """The per-pipeline configuration derived from the campaign config."""
        config = context.config
        return PipelineConfig(
            n_cycles=config.n_cycles,
            n_sequences=config.n_sequences,
            max_retries=config.max_retries,
            adaptive=adaptive,
            random_selection=random_selection,
            acceptance=config.acceptance,
            adaptivity_schedule=config.adaptivity_schedule,
            selection_seed=context.selection_seed,
        )


# -- registry ------------------------------------------------------------------- #

_REGISTRY: Dict[str, Type[ExecutionProtocol]] = {}


def register_protocol(cls: Type[ExecutionProtocol]) -> Type[ExecutionProtocol]:
    """Class decorator adding an :class:`ExecutionProtocol` to the registry.

    Registration is idempotent for the same class; registering a *different*
    class under an existing name raises :class:`CampaignError` (protocols are
    part of the reproducibility contract, silent replacement would let two
    runs with the same config mean different things).
    """
    if not (isinstance(cls, type) and issubclass(cls, ExecutionProtocol)):
        raise CampaignError(
            f"register_protocol expects an ExecutionProtocol subclass, got {cls!r}"
        )
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise CampaignError(
            f"protocol class {cls.__name__} must define a non-empty string 'name'"
        )
    if not isinstance(getattr(cls, "approach", None), str):
        raise CampaignError(
            f"protocol class {cls.__name__} must define a string 'approach' label"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise CampaignError(
            f"protocol {name!r} is already registered to {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_protocol(name: str) -> None:
    """Remove a protocol from the registry (primarily for tests/plugins)."""
    _REGISTRY.pop(name, None)


def available_protocols() -> Tuple[str, ...]:
    """The sorted names of every registered protocol."""
    return tuple(sorted(_REGISTRY))


def get_protocol(name: str) -> ExecutionProtocol:
    """Instantiate the protocol registered under ``name``.

    Raises
    ------
    CampaignError
        If no protocol is registered under ``name``.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise CampaignError(
            f"unknown protocol {name!r}; available: {list(available_protocols())}"
        ) from None
    return cls()


# -- built-in protocols ------------------------------------------------------------ #


class PilotRuntimeProtocol(ExecutionProtocol):
    """Shared machinery for protocols running on the asynchronous pilot runtime.

    Subclasses pick the selection/adaptivity flavour; execution always goes
    through a :class:`TaskManager` and the :class:`PipelinesCoordinator`, with
    sub-pipeline spawning governed by the campaign's spawn policy.

    Checkpoint granularity is the **whole run**: the discrete-event
    simulation interleaves every pipeline's stages, so a cycle boundary of
    one pipeline is not a quiescent point of the simulation — other
    pipelines' tasks (closures over live model objects) are in flight and
    cannot be serialised.  The single :meth:`step` therefore executes the
    whole simulation; completed cycles are reported through
    :attr:`ProtocolContext.on_progress` as they happen, and an interrupted
    run resumes by exact deterministic re-execution from the start.
    """

    #: Whether Stage 6 gates cycle acceptance.
    adaptive: ClassVar[bool] = True
    #: Whether the evaluated sequence is drawn at random instead of top-ranked.
    random_selection: ClassVar[bool] = False

    def step(self, context: ProtocolContext, state: CampaignState) -> CampaignState:
        config = context.config
        platform = ComputePlatform(context.platform_spec)
        task_manager = TaskManager(
            platform,
            context.durations,
            AgentConfig(
                scheduler_policy=config.scheduler_policy,
                backfill_window=config.backfill_window,
            ),
        )
        on_cycle = None
        if context.on_progress is not None:
            progress = context.on_progress

            def on_cycle(completed: int) -> None:
                progress(completed, None)

        coordinator = PipelinesCoordinator(
            task_manager,
            context.factory,
            CoordinatorConfig(
                pipeline=self.pipeline_config(
                    context,
                    adaptive=self.adaptive,
                    random_selection=self.random_selection,
                ),
                spawn_policy=config.spawn_policy,
                max_in_flight_pipelines=config.max_in_flight_pipelines,
            ),
            on_cycle=on_cycle,
        )
        coordinator.add_targets(context.targets)
        records = coordinator.run()
        return dataclasses.replace(
            state,
            cycle=coordinator.n_cycles_completed,
            done=True,
            restorable=False,
            payload=None,
            runtime=ProtocolOutcome(records=records, platform=platform),
        )


class SequentialRuntimeProtocol(ExecutionProtocol):
    """Shared machinery for middleware-free sequential protocols (the control).

    Sequential execution has a quiescent point after every design cycle, so
    each :meth:`step` advances exactly one cycle and snapshots the whole
    execution (pipeline state, captured RNG streams, simulated clock and
    profiler traces) into the state's JSON-able payload — a restorable
    checkpoint from which any process resumes bit-identically.
    """

    #: Whether the evaluated sequence is drawn at random (the paper's control).
    random_selection: ClassVar[bool] = True

    def _control_config(self, context: ProtocolContext) -> ControlConfig:
        config = context.config
        return ControlConfig(
            n_cycles=config.n_cycles,
            n_sequences=config.n_sequences,
            selection_seed=context.selection_seed,
            random_selection=self.random_selection,
        )

    def _control(self, context: ProtocolContext, state: CampaignState) -> ControlProtocol:
        """The live stepping engine: carried between steps, rebuilt on resume."""
        if isinstance(state.runtime, ControlProtocol):
            return state.runtime
        if state.payload is not None:
            return ControlProtocol.restore(
                context.platform_spec,
                context.factory,
                context.durations,
                self._control_config(context),
                context.targets,
                state.payload,
            )
        control = ControlProtocol(
            ComputePlatform(context.platform_spec),
            context.factory,
            context.durations,
            self._control_config(context),
        )
        control.begin(context.targets)
        return control

    def init_state(self, context: ProtocolContext) -> CampaignState:
        return CampaignState(
            protocol=self.name,
            seed=context.config.seed,
            cycles_total=len(context.targets) * context.config.n_cycles,
        )

    def step(self, context: ProtocolContext, state: CampaignState) -> CampaignState:
        control = self._control(context, state)
        finished = control.step_cycle()
        # No context.on_progress call here: each step IS one cycle, so the
        # post-step state observer already sees every boundary.
        capture = context.capture_snapshots
        return dataclasses.replace(
            state,
            cycle=control.n_cycles_completed,
            done=finished,
            restorable=capture,
            payload=control.snapshot() if capture else None,
            runtime=control,
        )

    def finalize(
        self, context: ProtocolContext, state: CampaignState
    ) -> ProtocolOutcome:
        if not state.done:
            raise CampaignError(
                f"protocol {self.name!r} cannot finalize an unfinished state "
                f"(cycle {state.cycle}/{state.cycles_total})"
            )
        control = self._control(context, state)
        return ProtocolOutcome(
            records=control.records(), platform=control.platform
        )


@register_protocol
class ImRpProtocol(PilotRuntimeProtocol):
    """The paper's adaptive implementation (IM-RP)."""

    name = "im-rp"
    approach = "IM-RP"
    summary = "adaptive pipelines on the pilot runtime, top-ranked selection"


@register_protocol
class ImRpRandomProtocol(PilotRuntimeProtocol):
    """IM-RP's runtime and adaptivity with the control's random selection."""

    name = "im-rp-random"
    approach = "IM-RP-RAND"
    summary = "pilot runtime + adaptive gating, but random sequence selection"
    random_selection = True


@register_protocol
class ContVProtocol(SequentialRuntimeProtocol):
    """The paper's non-adaptive sequential control (CONT-V)."""

    name = "cont-v"
    approach = "CONT-V"
    summary = "sequential middleware-free execution, random selection"


@register_protocol
class ContVRankedProtocol(SequentialRuntimeProtocol):
    """CONT-V's sequential execution with top-ranked selection."""

    name = "cont-v-ranked"
    approach = "CONT-V-RANK"
    summary = "sequential middleware-free execution, top-ranked selection"
    random_selection = False
