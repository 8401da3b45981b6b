"""The execution protocols: a fixed table of the paper's two and two ablations.

The paper's central object of study is the *execution protocol*: the same six
design stages can be driven adaptively over the asynchronous pilot runtime
(IM-RP) or sequentially without middleware (CONT-V).  Each protocol here is
one row of a fixed table, named by a string key: its report label, a
one-line summary, and the two flags that set how it runs.
:class:`~repro.core.campaign.DesignCampaign` looks its row up by name and
builds the engine the row calls for:

>>> from repro.core.protocols import available_protocols, get_protocol
>>> available_protocols()
('cont-v', 'cont-v-ranked', 'im-rp', 'im-rp-random')
>>> get_protocol("cont-v").sequential
True

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
A campaign runs as an explicit state machine over a :class:`CampaignState`,
and :meth:`~repro.core.campaign.DesignCampaign.run_stepwise` is its one
driver.  Every protocol steps one design cycle at a time, the same way: the
campaign builds the row's engine — the control
(:class:`~repro.core.control.ControlProtocol`) for a ``sequential`` row, the
pipelines coordinator on the pilot runtime otherwise — calls its
``step_cycle()``, carries the live engine in the state's ``runtime``, and
reads its result from the finished engine.  A step encodes nothing: a state
is encoded when it is saved (:meth:`CampaignState.as_dict`).

The two kinds of row differ in what a cycle boundary can be restored from:

* a ``sequential`` row (the ``cont-v`` family) stops at a quiescent point —
  no task in flight, the pipeline's next generation task rebuilt by
  ``Pipeline.pending_task()`` — so every post-step state can be saved as a
  JSON-able payload from which a different process (or a different worker
  machine) resumes the run at that cycle, finishing byte-identical to an
  uninterrupted run;
* a row that is not ``sequential`` (the ``im-rp`` family) interleaves
  pipelines inside one asynchronous discrete-event simulation, and a step
  returns right after the event that completes a cycle, with other
  pipelines' tasks in flight.  Each pipeline can rebuild its own
  outstanding task, so those tasks are not what blocks a checkpoint; the
  simulation's own state is: the event heap, the live allocations, the
  scheduler queue and the coordinator's state, none of which has a codec
  yet.  So a pilot state cannot be saved: the orchestration worker hands
  its cycle to the heartbeat lease and never checkpoints it, and an
  interrupted run resumes by deterministic re-execution from the start —
  the determinism contract makes that re-execution exact, just not free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.control import ControlProtocol
from repro.exceptions import CampaignError

__all__ = [
    "CampaignState",
    "ExecutionProtocol",
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
        campaign rebuilds it from ``payload``).
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


@dataclass(frozen=True)
class ExecutionProtocol:
    """One execution protocol: a row of the fixed table.

    Attributes
    ----------
    name:
        Protocol key, e.g. ``"im-rp"``.
    approach:
        Label reported in Table-I-style outputs, e.g. ``"IM-RP"``.
    summary:
        One line shown by ``python -m repro.experiments --list-protocols``.
    sequential:
        Whether the pipelines run one task at a time without middleware and
        without adaptivity (the control); otherwise they run concurrently on
        the pilot runtime, with Stage 6 gating cycle acceptance.
    random_selection:
        Whether the evaluated sequence is drawn at random instead of
        top-ranked.
    """

    name: str
    approach: str
    summary: str
    sequential: bool
    random_selection: bool


_PROTOCOLS: Dict[str, ExecutionProtocol] = {
    row.name: row
    for row in (
        ExecutionProtocol(
            "im-rp", "IM-RP",
            "adaptive pipelines on the pilot runtime, top-ranked selection",
            sequential=False, random_selection=False,
        ),
        ExecutionProtocol(
            "im-rp-random", "IM-RP-RAND",
            "pilot runtime + adaptive gating, but random sequence selection",
            sequential=False, random_selection=True,
        ),
        ExecutionProtocol(
            "cont-v", "CONT-V",
            "sequential middleware-free execution, random selection",
            sequential=True, random_selection=True,
        ),
        ExecutionProtocol(
            "cont-v-ranked", "CONT-V-RANK",
            "sequential middleware-free execution, top-ranked selection",
            sequential=True, random_selection=False,
        ),
    )
}


def available_protocols() -> Tuple[str, ...]:
    """The sorted names of the protocols."""
    return tuple(sorted(_PROTOCOLS))


def get_protocol(name: str) -> ExecutionProtocol:
    """The row of the protocol named ``name``.

    Raises
    ------
    CampaignError
        If no protocol has that name.
    """
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise CampaignError(
            f"unknown protocol {name!r}; available: {list(available_protocols())}"
        ) from None
