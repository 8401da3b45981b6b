"""Deterministic, seeded fault schedules.

A :class:`FaultPlan` answers one question, over and over: *should the Nth
crossing of failpoint «site» in this process fault, and how?*  The answer is
a pure function of ``(seed, site, N)`` — no wall clock, no global RNG — so

* the same seed replays the same schedule, invocation for invocation (the
  chaos-soak reproducibility contract), and
* what fires at one site does not depend on how often any *other* site was
  crossed, so adding instrumentation (or a new failpoint) never perturbs an
  existing schedule.

Two scheduling mechanisms compose:

* **rates** — per-kind probabilities; each crossing draws a deterministic
  uniform from BLAKE2b(seed, site, N) and walks the cumulative rate ladder
  over the kinds applicable at that site;
* **forced faults** — ``(site, at, kind)`` triples that fire exactly at the
  ``at``-th crossing of ``site`` (1-based), for tests and CI smokes that must
  *guarantee* a specific fault (e.g. "one ``crash_after_write`` on the store
  append path") instead of betting on rates.

Plans serialise to/from a JSON environment value (:data:`FAULTS_ENV`) so an
orchestration worker *subprocess* inherits the chaos adversary's schedule —
the whole point: faults must reach the durability seams of the processes
that actually execute runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultEvent",
    "FaultPlan",
    "ForcedFault",
]

#: Environment variable carrying a JSON-encoded plan into subprocesses.
FAULTS_ENV = "REPRO_FAULTS"

#: Upper bound of the deterministic ``slow_io`` stall (seconds).
_MAX_DELAY = 0.05

#: Magnitude bound of the deterministic ``clock_skew`` offset (seconds; the
#: sign is part of the draw).
_MAX_SKEW = 60.0

#: Every injectable fault kind, in the canonical rate-ladder order.
FAULT_KINDS = (
    "io_error",          # transient EIO raised before the seam touches disk
    "enospc",            # ENOSPC raised before the seam touches disk
    "torn_write",        # a prefix of the payload lands, then the write fails
    "crash_after_write", # SIGKILL after the write committed (caller never learns)
    "crash_before_rename",  # SIGKILL between temp write and os.replace
    "slow_io",           # the seam stalls for a deterministic delay
    "clock_skew",        # lease timestamps are offset by a deterministic skew
)


@dataclass(frozen=True)
class ForcedFault:
    """Fire ``kind`` at exactly the ``at``-th crossing of ``site`` (1-based)."""

    site: str
    at: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.at < 1:
            raise ConfigurationError(
                f"forced fault at-index is 1-based, got {self.at}"
            )

    @classmethod
    def parse(cls, text: str) -> "ForcedFault":
        """Parse the CLI form ``site:at:kind`` (e.g. ``store.append:1:enospc``)."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"forced fault must be SITE:AT:KIND, got {text!r}"
            )
        site, at, kind = parts
        try:
            index = int(at)
        except ValueError:
            raise ConfigurationError(
                f"forced fault at-index must be an integer, got {at!r}"
            ) from None
        return cls(site=site, at=index, kind=kind)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what fires, where, and with which parameters."""

    site: str
    kind: str
    #: Which crossing of ``site`` this is (1-based invocation count).
    index: int
    #: Stall length for ``slow_io`` events (seconds).
    delay: float = 0.0
    #: Signed clock offset for ``clock_skew`` events (seconds).
    skew: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "index": self.index,
            "delay": self.delay,
            "skew": self.skew,
        }


def _uniform(seed: int, site: str, index: int, salt: str = "") -> float:
    """A deterministic uniform in [0, 1) from the schedule identity.

    BLAKE2b like :func:`repro.utils.rng.derive_seed`, but over the failpoint
    coordinates — stable across processes and ``PYTHONHASHSEED``\\ s.
    """
    digest = hashlib.blake2b(
        f"{seed}\x1f{site}\x1f{index}\x1f{salt}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / float(1 << 64)


class FaultPlan:
    """A seeded schedule of named faults (see the module docstring).

    Parameters
    ----------
    seed:
        Schedule identity: two plans with equal seed/rates/forced lists make
        identical decisions for identical crossing sequences.
    rates:
        ``kind -> probability`` per failpoint crossing.  Kinds a site does
        not support (see :data:`repro.faults.registry.SITE_KINDS`) are simply
        never drawn there; the rates of the applicable kinds stack (their sum
        is the site's total fault probability and must stay <= 1).
    force:
        Deterministic one-shot faults (:class:`ForcedFault`); they win over
        the rate draw at their crossing and fire even at rate 0.
    log_dir:
        When set, every fired event is appended (JSONL, one file per pid) for
        post-hoc chaos reports — observability, not coordination.
    """

    def __init__(
        self,
        seed: int,
        *,
        rates: Optional[Mapping[str, float]] = None,
        force: Sequence[ForcedFault] = (),
        log_dir: Optional[str] = None,
    ) -> None:
        rates = dict(rates or {})
        for kind, rate in rates.items():
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {kind!r} must be in [0, 1], got {rate}"
                )
        if sum(rates.values()) > 1.0 + 1e-9:
            raise ConfigurationError(
                f"fault rates sum to {sum(rates.values()):.3f} > 1"
            )
        self.seed = int(seed)
        self.rates: Dict[str, float] = {
            kind: float(rates[kind]) for kind in FAULT_KINDS if kind in rates
        }
        self.force: Tuple[ForcedFault, ...] = tuple(
            entry if isinstance(entry, ForcedFault) else ForcedFault(*entry)
            for entry in force
        )
        self.log_dir = log_dir
        #: Per-site crossing counters (this process only).
        self.invocations: Dict[str, int] = {}
        self._forced_index: Dict[Tuple[str, int], str] = {
            (entry.site, entry.at): entry.kind for entry in self.force
        }

    # -- scheduling ------------------------------------------------------------ #

    def decide(
        self, site: str, kinds: Sequence[str] = FAULT_KINDS
    ) -> Optional[FaultEvent]:
        """Advance ``site``'s crossing counter and schedule its fault, if any.

        ``kinds`` restricts the draw to the fault kinds meaningful at this
        seam.  Pure in ``(seed, site, index)`` apart from the counter bump.
        """
        index = self.invocations.get(site, 0) + 1
        self.invocations[site] = index
        kind = self._forced_index.get((site, index))
        if kind is None:
            kind = self._draw(site, index, kinds)
        if kind is None or kind not in kinds:
            return None
        return FaultEvent(
            site=site,
            kind=kind,
            index=index,
            delay=(
                _uniform(self.seed, site, index, "delay") * _MAX_DELAY
                if kind == "slow_io"
                else 0.0
            ),
            skew=(
                (2.0 * _uniform(self.seed, site, index, "skew") - 1.0) * _MAX_SKEW
                if kind == "clock_skew"
                else 0.0
            ),
        )

    def _draw(self, site: str, index: int, kinds: Sequence[str]) -> Optional[str]:
        u = _uniform(self.seed, site, index)
        cumulative = 0.0
        for kind in FAULT_KINDS:
            if kind not in kinds:
                continue
            cumulative += self.rates.get(kind, 0.0)
            if u < cumulative:
                return kind
        return None

    # -- serialisation --------------------------------------------------------- #

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rates": dict(self.rates),
            "force": [
                {"site": entry.site, "at": entry.at, "kind": entry.kind}
                for entry in self.force
            ],
            "log_dir": self.log_dir,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        try:
            return cls(
                int(payload["seed"]),
                rates=payload.get("rates") or {},
                force=[
                    ForcedFault(
                        site=str(entry["site"]),
                        at=int(entry["at"]),
                        kind=str(entry["kind"]),
                    )
                    for entry in payload.get("force") or []
                ],
                log_dir=payload.get("log_dir"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"unreadable fault plan payload: {error}"
            ) from error

    def to_env(self) -> str:
        """The :data:`FAULTS_ENV` value activating this plan in a subprocess."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_env(cls, value: Optional[str] = None) -> Optional["FaultPlan"]:
        """Decode a plan from ``value`` or ``os.environ[FAULTS_ENV]``.

        ``None`` when the variable is unset/empty; a *set but unreadable*
        value raises — a chaos run with a typo'd plan must not silently
        become a fault-free run.
        """
        if value is None:
            value = os.environ.get(FAULTS_ENV, "")
        if not value:
            return None
        try:
            payload = json.loads(value)
        except ValueError as error:
            raise ConfigurationError(
                f"${FAULTS_ENV} is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ConfigurationError(f"${FAULTS_ENV} must hold a JSON object")
        return cls.from_dict(payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, rates={self.rates}, "
            f"force={len(self.force)})"
        )
