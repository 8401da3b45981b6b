"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole scenario matrix — protocols × seeds ×
platform specs × knob combinations over one target set — without constructing
any campaign object.  Everything in it is a plain picklable dataclass, so the
expanded :class:`RunSpec` list can be shipped to worker processes which build
targets and campaigns locally (cheaper and more deterministic than pickling
landscapes and surrogate models across process boundaries).

:meth:`TargetSpec.build` is deterministic in the spec, so inside one
:func:`shared_target_builds` scope (a serial suite run, one worker's drain)
each distinct spec is built once and its targets are shared, read-only, by
every run of the scope; results are identical to building per run.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.campaign import CampaignConfig
from repro.core.protocols import available_protocols
from repro.exceptions import CampaignError
from repro.hpc.resources import PlatformSpec
from repro.protein.alphabet import is_valid_sequence
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C4,
    ALPHA_SYNUCLEIN_C10,
    EXPANDED_LENGTHS,
    PDZ_LENGTH,
    DesignTarget,
    expanded_pdz_set,
    named_pdz_targets,
)

__all__ = ["TargetSpec", "RunSpec", "SweepSpec", "shared_target_builds"]

#: The shortest receptor each target-set kind builds at any dataset seed; a
#: peptide docks only against a longer receptor.
_SHORTEST_RECEPTOR = {"named-pdz": PDZ_LENGTH, "expanded-pdz": EXPANDED_LENGTHS[0]}

#: Target-set kinds understood by :meth:`TargetSpec.build`.
TARGET_KINDS = tuple(_SHORTEST_RECEPTOR)

#: CampaignConfig fields a sweep may not override directly (they are swept
#: axes or would break run identity).
_RESERVED_OVERRIDES = ("protocol", "seed", "platform_spec")

#: The open :func:`shared_target_builds` scope's builds, ``None`` outside one.
_SHARED_BUILDS: ContextVar[Optional[Dict["TargetSpec", Tuple[DesignTarget, ...]]]] = (
    ContextVar("shared_target_builds", default=None)
)


@contextmanager
def shared_target_builds() -> Iterator[None]:
    """Build each distinct :class:`TargetSpec` once until the block exits.

    Inside the block :meth:`TargetSpec.build` materialises a spec on its
    first call and hands every later call a fresh list over the same
    :class:`~repro.protein.datasets.DesignTarget` objects, which campaigns
    only read.  A block nested in an open one shares the outer block's
    builds.  The builds live in a :class:`~contextvars.ContextVar`: a new
    thread starts without them unless it runs in
    :func:`contextvars.copy_context`, and they are dropped when the outermost
    block exits.
    """
    if _SHARED_BUILDS.get() is not None:
        yield
        return
    token = _SHARED_BUILDS.set({})
    try:
        yield
    finally:
        _SHARED_BUILDS.reset(token)


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of a design-target set.

    Attributes
    ----------
    kind:
        ``"named-pdz"`` (the four named PDZ domains of Table I / Fig 2) or
        ``"expanded-pdz"`` (the Fig 3 expanded set).
    seed:
        Dataset seed (independent of the campaign seed).
    n_targets:
        Size of the expanded set (ignored for ``"named-pdz"``).
    peptide:
        Peptide residues (canonical one-letter codes); ``None`` means the
        paper's choice for the kind.  It must be shorter than every receptor
        the kind can build, so that the spec builds at any dataset seed.
    """

    kind: str = "named-pdz"
    seed: int = 0
    n_targets: int = 70
    peptide: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise CampaignError(
                f"target kind must be one of {list(TARGET_KINDS)}, got {self.kind!r}"
            )
        if self.n_targets < 1:
            raise CampaignError("n_targets must be >= 1")
        if self.peptide is not None and not (
            isinstance(self.peptide, str) and is_valid_sequence(self.peptide)
        ):
            raise CampaignError(
                "peptide must be a non-empty string of canonical one-letter "
                f"amino acids (or None for the default), got {self.peptide!r}"
            )
        shortest = _SHORTEST_RECEPTOR[self.kind]
        if self.peptide is not None and len(self.peptide) >= shortest:
            raise CampaignError(
                f"peptide of {len(self.peptide)} residues cannot dock: {self.kind} "
                f"receptors can be as short as {shortest} residues"
            )

    def build(self) -> List[DesignTarget]:
        """Materialise the target set (deterministic in the spec).

        Inside :func:`shared_target_builds` a spec is built once and each
        call returns a fresh list over the same, read-only targets.
        """
        shared = _SHARED_BUILDS.get()
        if shared is not None and self in shared:
            return list(shared[self])
        if self.kind == "named-pdz":
            targets = named_pdz_targets(
                seed=self.seed, peptide_residues=self.peptide or ALPHA_SYNUCLEIN_C10
            )
        else:
            targets = expanded_pdz_set(
                n_targets=self.n_targets,
                seed=self.seed,
                peptide_residues=self.peptide or ALPHA_SYNUCLEIN_C4,
            )
        if shared is not None:
            # setdefault: a racing builder in a copied context publishes once.
            targets = list(shared.setdefault(self, tuple(targets)))
        return targets


@dataclass(frozen=True)
class RunSpec:
    """One fully resolved campaign run inside a sweep.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied on top
    of :class:`CampaignConfig` defaults, keeping the spec hashable-free but
    frozen and picklable.
    """

    run_id: str
    protocol: str
    seed: int
    targets: TargetSpec = field(default_factory=TargetSpec)
    overrides: Tuple[Tuple[str, object], ...] = ()

    def campaign_config(self) -> CampaignConfig:
        """Build the campaign configuration for this run."""
        return CampaignConfig(
            protocol=self.protocol, seed=self.seed, **dict(self.overrides)
        )

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "protocol": self.protocol,
            "seed": self.seed,
            "targets": dataclasses.asdict(self.targets),
            "overrides": {key: repr(value) for key, value in self.overrides},
        }


def _validate_overrides(overrides: Mapping[str, object], where: str) -> None:
    valid = {f.name for f in dataclasses.fields(CampaignConfig)}
    for key in overrides:
        if key in _RESERVED_OVERRIDES:
            raise CampaignError(
                f"{where} may not override {key!r}; use the sweep axis instead"
            )
        if key not in valid:
            raise CampaignError(
                f"{where} contains unknown CampaignConfig field {key!r}; "
                f"valid fields: {sorted(valid - set(_RESERVED_OVERRIDES))}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """A scenario matrix: protocols × seeds × platform specs × knobs.

    Attributes
    ----------
    protocols:
        Protocol names to sweep.
    seeds:
        Campaign root seeds to sweep.
    targets:
        The (shared) target set every run designs against.
    platform_specs:
        Platforms to sweep; ``None`` entries mean the campaign default
        (one Amarel-like node).
    knobs:
        Knob combinations (CampaignConfig field overrides) to sweep — e.g.
        ``({"max_in_flight_pipelines": 1}, {"max_in_flight_pipelines": 4})``
        for a concurrency-cap ablation.  ``({},)`` sweeps nothing.
    base:
        Overrides applied to *every* run (e.g. smaller ``n_cycles``).
    """

    protocols: Tuple[str, ...] = ("im-rp", "cont-v")
    seeds: Tuple[int, ...] = (0,)
    targets: TargetSpec = field(default_factory=TargetSpec)
    platform_specs: Tuple[Optional[PlatformSpec], ...] = (None,)
    knobs: Tuple[Dict[str, object], ...] = ({},)
    base: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.protocols or not self.seeds:
            raise CampaignError("a sweep needs at least one protocol and one seed")
        if not self.platform_specs or not self.knobs:
            raise CampaignError(
                "platform_specs and knobs must each have at least one entry "
                "(use (None,) / ({},) for the defaults)"
            )
        known = set(available_protocols())
        unknown = [name for name in self.protocols if name not in known]
        if unknown:
            raise CampaignError(
                f"unknown protocols in sweep: {unknown}; "
                f"available: {sorted(known)}"
            )
        if len(set(self.protocols)) != len(self.protocols):
            raise CampaignError("sweep protocols must be unique")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError("sweep seeds must be unique")
        _validate_overrides(self.base, "SweepSpec.base")
        for index, knob in enumerate(self.knobs):
            _validate_overrides(knob, f"SweepSpec.knobs[{index}]")

    @property
    def n_runs(self) -> int:
        return (
            len(self.protocols)
            * len(self.seeds)
            * len(self.platform_specs)
            * len(self.knobs)
        )

    def expand(self) -> List[RunSpec]:
        """The full cartesian product as an ordered list of :class:`RunSpec`.

        Run ids are stable and human-readable
        (``<protocol>-s<seed>[-p<i>][-k<i>]``); the platform/knob suffixes
        appear only when that axis actually varies.
        """
        many_platforms = len(self.platform_specs) > 1
        many_knobs = len(self.knobs) > 1
        runs: List[RunSpec] = []
        for protocol in self.protocols:
            for seed in self.seeds:
                for p_index, platform_spec in enumerate(self.platform_specs):
                    for k_index, knob in enumerate(self.knobs):
                        overrides = dict(self.base)
                        overrides.update(knob)
                        if platform_spec is not None:
                            overrides["platform_spec"] = platform_spec
                        run_id = f"{protocol}-s{seed}"
                        if many_platforms:
                            run_id += f"-p{p_index}"
                        if many_knobs:
                            run_id += f"-k{k_index}"
                        runs.append(
                            RunSpec(
                                run_id=run_id,
                                protocol=protocol,
                                seed=seed,
                                targets=self.targets,
                                overrides=tuple(sorted(overrides.items())),
                            )
                        )
        return runs
