"""The execution protocols: a fixed table of the paper's two and two ablations.

The paper's central object of study is the *execution protocol*: the same six
design stages can be driven adaptively over the asynchronous pilot runtime
(IM-RP) or sequentially without middleware (CONT-V).  Each protocol here is
one class, named by a string key, so that
:class:`~repro.core.campaign.DesignCampaign` stays a thin orchestrator that
looks its protocol up by name:

>>> from repro.core.protocols import available_protocols
>>> available_protocols()
('cont-v', 'cont-v-ranked', 'im-rp', 'im-rp-random')

The protocols
-------------
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

Cycle-granular execution
------------------------
Execution is an explicit state machine: a campaign runs as ``init_state`` →
``step``\\* over a :class:`CampaignState`, and
:meth:`~repro.core.campaign.DesignCampaign.run_stepwise` is its one driver.
Every protocol steps one design cycle at a time, the same way: a family
supplies only its stepping engine, the control or the pipelines coordinator;
``step`` calls the engine's ``step_cycle()`` and carries the live engine in
the state's ``runtime``, and the campaign reads its result from the finished
engine.  A step encodes nothing: a state is encoded when it is saved
(:meth:`CampaignState.as_dict`).

The two families differ in what a cycle boundary can be restored from:

* **sequential protocols** (``cont-v`` family) stop at a quiescent point —
  no task in flight, the pipeline's next generation task rebuilt by
  ``Pipeline.pending_task()`` — so every post-step state can be saved as a
  JSON-able payload from which a different process (or a different worker
  machine) resumes the run at that cycle, finishing byte-identical to an
  uninterrupted run;
* **pilot protocols** (``im-rp`` family) interleave pipelines inside one
  asynchronous discrete-event simulation, and a step returns right after
  the event that completes a cycle, with other pipelines' tasks in flight.
  Each pipeline can rebuild its own outstanding task, so those tasks are
  not what blocks a checkpoint; the simulation's own state is: the event
  heap, the live allocations, the scheduler queue and the coordinator's
  state, none of which has a codec yet.  So a pilot state cannot be saved:
  the orchestration worker hands its cycle to the heartbeat lease and never
  checkpoints it, and an interrupted run resumes by deterministic
  re-execution from the start — the determinism contract makes that
  re-execution exact, just not free.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Tuple, Type

from repro.core.control import ControlProtocol
from repro.core.coordinator import PipelinesCoordinator
from repro.core.pipeline import PipelineConfig, StageModels
from repro.exceptions import CampaignError, ReproError, StoreError
from repro.hpc.platform import ComputePlatform
from repro.hpc.resources import PlatformSpec, amarel_platform
from repro.hpc.scheduler import placement_window
from repro.runtime.task_manager import TaskManager
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.campaign import CampaignConfig
    from repro.protein.datasets import DesignTarget
    from repro.runtime.durations import DurationModel

__all__ = [
    "CampaignState",
    "ProtocolContext",
    "ExecutionProtocol",
    "PilotRuntimeProtocol",
    "SequentialRuntimeProtocol",
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
        Whether execution finished and the campaign may build its result.
    payload:
        The JSON-able snapshot read back from a checkpoint, from which a
        fresh process rebuilds execution at this boundary; ``None`` for a
        live state, which :meth:`as_dict` encodes when it is saved.
    runtime:
        The live stepping engine carried between consecutive steps (never
        serialised; absent after a cross-process resume, in which case the
        protocol rebuilds it from ``payload``).
    """

    protocol: str
    seed: int
    cycle: int = 0
    cycles_total: Optional[int] = None
    done: bool = False
    payload: Optional[Dict[str, Any]] = None
    runtime: Any = field(default=None, repr=False, compare=False)

    @property
    def restorable(self) -> bool:
        """Whether the state can be saved as a restore point: it holds a
        payload, or its live engine has a codec (the control; the pilot
        coordinator has none yet).  A state that cannot is a progress report.
        """
        return self.payload is not None or isinstance(self.runtime, ControlProtocol)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able rendering (drops the live ``runtime`` objects).

        The payload is the one read back from a checkpoint, or else the live
        control's snapshot, encoded now.  A live state whose control has
        stepped past its cycle raises :class:`CampaignError`: its snapshot
        would be a later boundary than the cycle the state names.
        """
        payload = self.payload
        if payload is None and isinstance(self.runtime, ControlProtocol):
            completed = self.runtime.n_cycles_completed
            if completed != self.cycle:
                raise CampaignError(
                    f"{self.protocol} state at cycle {self.cycle} can no longer "
                    f"be encoded: its control has stepped on to cycle "
                    f"{completed}; save a state while its observer holds it"
                )
            payload = self.runtime.snapshot()
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "cycle": self.cycle,
            "cycles_total": self.cycles_total,
            "done": self.done,
            "payload": payload,
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
                payload=payload["payload"],
            )
        except (KeyError, TypeError) as error:
            raise CampaignError(
                f"malformed campaign state payload: {error}"
            ) from error


@dataclass
class ProtocolContext:
    """Everything a protocol needs to execute one campaign.

    The campaign builds the shared surrogates and the duration model once
    (they define the *science* of the run); the protocol decides only *how*
    the pipelines' tasks execute.
    """

    config: "CampaignConfig"
    targets: List["DesignTarget"]
    models: StageModels
    durations: "DurationModel"

    @property
    def platform_spec(self) -> PlatformSpec:
        """The platform to simulate (defaults to one Amarel-like GPU node)."""
        return self.config.platform_spec or amarel_platform(1)

    @property
    def selection_seed(self) -> int:
        """Seed of the sequence-selection stream, derived from the root seed."""
        return derive_seed(self.config.seed, "selection")


class ExecutionProtocol(abc.ABC):
    """One way of executing a design campaign's pipelines.

    Subclasses set :attr:`name` (the protocol key) and :attr:`approach` (the
    label reported in Table-I-style outputs) and implement :meth:`engine`;
    :meth:`step` advances that engine one design cycle, and the campaign
    reads its result from the finished engine.
    """

    #: Protocol key, e.g. ``"im-rp"``.
    name: ClassVar[str]
    #: Human-readable approach label used in reports, e.g. ``"IM-RP"``.
    approach: ClassVar[str]
    #: One-line description shown by ``python -m repro.experiments --list-protocols``.
    summary: ClassVar[str] = ""

    def init_state(self, context: ProtocolContext) -> CampaignState:
        """The pre-execution state (cycle 0, nothing in flight)."""
        return CampaignState(protocol=self.name, seed=context.config.seed)

    @abc.abstractmethod
    def engine(
        self, context: ProtocolContext, state: CampaignState
    ) -> ControlProtocol | PipelinesCoordinator:
        """The live engine: ``state.runtime``, or one built for ``state``."""

    def step(self, context: ProtocolContext, state: CampaignState) -> CampaignState:
        """Advance one design cycle and return the successor state."""
        engine = self.engine(context, state)
        finished = engine.step_cycle()
        return dataclasses.replace(
            state,
            cycle=engine.n_cycles_completed,
            done=finished,
            payload=None,
            runtime=engine,
        )

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


# -- the protocols ------------------------------------------------------------ #


class PilotRuntimeProtocol(ExecutionProtocol):
    """Shared machinery for protocols running on the asynchronous pilot runtime.

    Subclasses pick the selection/adaptivity flavour; execution always goes
    through a :class:`TaskManager` and the :class:`PipelinesCoordinator`, with
    sub-pipeline spawning governed by the campaign's spawn policy.

    Each step runs the discrete-event simulation until the next design cycle
    completes, so a cycle boundary of one pipeline is not a quiescent point
    of the simulation — other pipelines' tasks are in flight.  Each pipeline
    can rebuild its own outstanding task (``Pipeline.pending_task()``), but
    the event heap, the live allocations, the scheduler queue and the
    coordinator's state have no codec yet, so a state cannot be saved and
    an interrupted run resumes by exact deterministic re-execution from the
    start.
    """

    #: Whether Stage 6 gates cycle acceptance.
    adaptive: ClassVar[bool] = True
    #: Whether the evaluated sequence is drawn at random instead of top-ranked.
    random_selection: ClassVar[bool] = False

    def engine(
        self, context: ProtocolContext, state: CampaignState
    ) -> PipelinesCoordinator:
        """The live coordinator, carried between steps and built on the first."""
        if isinstance(state.runtime, PipelinesCoordinator):
            return state.runtime
        if state.cycle or state.done:
            raise CampaignError(
                f"{self.name} cannot rebuild its execution at cycle "
                f"{state.cycle}; re-run from the start instead"
            )
        config = context.config
        task_manager = TaskManager(
            ComputePlatform(context.platform_spec),
            context.durations,
            placement_window(config.scheduler_policy, config.backfill_window),
        )
        coordinator = PipelinesCoordinator(
            task_manager,
            context.models,
            self.pipeline_config(
                context, adaptive=self.adaptive, random_selection=self.random_selection
            ),
            config.spawn_policy,
            config.max_in_flight_pipelines,
        )
        coordinator.add_targets(context.targets)
        return coordinator


class SequentialRuntimeProtocol(ExecutionProtocol):
    """Shared machinery for middleware-free sequential protocols (the control).

    Sequential execution has a quiescent point after every design cycle, so
    every post-step state can be saved: :meth:`CampaignState.as_dict`
    snapshots the whole execution (pipeline state, captured RNG streams,
    simulated clock and profiler traces) into a JSON-able payload — a
    restorable checkpoint from which any process resumes bit-identically.
    """

    #: Whether the evaluated sequence is drawn at random (the paper's control).
    random_selection: ClassVar[bool] = True

    def engine(self, context: ProtocolContext, state: CampaignState) -> ControlProtocol:
        """The live control: carried between steps, rebuilt on resume."""
        if isinstance(state.runtime, ControlProtocol):
            return state.runtime
        config = self.pipeline_config(
            context, adaptive=False, random_selection=self.random_selection
        )
        if state.payload is not None:
            try:
                return ControlProtocol.restore(
                    context.platform_spec,
                    context.models,
                    context.durations,
                    config,
                    context.targets,
                    state.payload,
                )
            except (LookupError, TypeError, ValueError, AttributeError, ReproError) as error:
                # The checkpoint, not the run, is at fault: a retry would
                # resume from the same payload and fail the same way.
                raise StoreError(
                    f"{self.name} checkpoint payload at cycle {state.cycle} does "
                    f"not restore: {type(error).__name__}: {error}"
                ) from error
        return ControlProtocol(
            ComputePlatform(context.platform_spec),
            context.models,
            context.durations,
            config,
            context.targets,
        )

    def init_state(self, context: ProtocolContext) -> CampaignState:
        return CampaignState(
            protocol=self.name,
            seed=context.config.seed,
            cycles_total=len(context.targets) * context.config.n_cycles,
        )


class ImRpProtocol(PilotRuntimeProtocol):
    """The paper's adaptive implementation (IM-RP)."""

    name = "im-rp"
    approach = "IM-RP"
    summary = "adaptive pipelines on the pilot runtime, top-ranked selection"


class ImRpRandomProtocol(PilotRuntimeProtocol):
    """IM-RP's runtime and adaptivity with the control's random selection."""

    name = "im-rp-random"
    approach = "IM-RP-RAND"
    summary = "pilot runtime + adaptive gating, but random sequence selection"
    random_selection = True


class ContVProtocol(SequentialRuntimeProtocol):
    """The paper's non-adaptive sequential control (CONT-V)."""

    name = "cont-v"
    approach = "CONT-V"
    summary = "sequential middleware-free execution, random selection"


class ContVRankedProtocol(SequentialRuntimeProtocol):
    """CONT-V's sequential execution with top-ranked selection."""

    name = "cont-v-ranked"
    approach = "CONT-V-RANK"
    summary = "sequential middleware-free execution, top-ranked selection"
    random_selection = False


# -- the protocol table ------------------------------------------------------- #

_PROTOCOLS: Dict[str, Type[ExecutionProtocol]] = {
    cls.name: cls
    for cls in (ImRpProtocol, ImRpRandomProtocol, ContVProtocol, ContVRankedProtocol)
}


def available_protocols() -> Tuple[str, ...]:
    """The sorted names of the protocols."""
    return tuple(sorted(_PROTOCOLS))


def get_protocol(name: str) -> ExecutionProtocol:
    """Instantiate the protocol named ``name``.

    Raises
    ------
    CampaignError
        If no protocol has that name.
    """
    try:
        cls = _PROTOCOLS[name]
    except KeyError:
        raise CampaignError(
            f"unknown protocol {name!r}; available: {list(available_protocols())}"
        ) from None
    return cls()
