"""Fingerprint-keyed campaign checkpoints: the suspend/resume persistence.

A :class:`CheckpointStore` is a directory holding one JSONL file per run
(keyed by the run's :func:`~repro.store.fingerprint.run_fingerprint`), one
schema-version-stamped line per completed cycle::

    checkpoints/<fingerprint>.jsonl
      {"schema_version": 2, "fingerprint": "…", "run_id": "cont-v-s0",
       "worker": "node1-4242", "cycle": 3, "cycles_total": 12,
       "restorable": true, "state": {…CampaignState…}, "written_at": …}

A line holds only evolving state (see :mod:`repro.core.snapshot`): target
structures are rebuilt from the run spec, so no coordinates are written.

Durability contract:

* **atomic write-then-replace** — every save rewrites the file through a
  temp file + ``os.replace``, so readers never observe a torn *file*; the
  previous cycles' lines are carried forward, preserving the ladder.
* **torn-line fallback** — on filesystems where the rename is not atomic a
  crash can still tear the newest line; unparseable/truncated tail lines
  are skipped and the run resumes from the **previous cycle's** checkpoint
  (at most one cycle is re-executed — exactly, by the determinism
  contract).
* **versioned** — every line carries ``schema_version``; a checkpoint
  written by any other layout (an older build's version 1 included) is
  rejected with a clear error, never half-parsed into a silently wrong
  resume.

Reads walk the ladder newest first and decode only until the first usable
line, so a resume or a status report decodes one snapshot, not the ladder.

Checkpoints are transient by design: the orchestration worker discards a
run's file once its finished record lands in the :class:`~repro.store.
runstore.RunStore` and the done marker is published.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.core.protocols import CampaignState
from repro.exceptions import StoreError
from repro.utils.serialization import atomic_write_text

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "CheckpointRecord", "CheckpointStore"]

#: Layout version stamped on every checkpoint line.  Version 2 encodes
#: complexes relative to their targets, each trajectory once and profiler
#: intervals as rows.
CHECKPOINT_SCHEMA_VERSION = 2

#: How many trailing ladder records a save keeps.  The torn-line fallback
#: only ever needs the *previous* cycle; keeping a couple more is cheap
#: insurance, while an unbounded ladder would grow quadratically (every
#: line carries the full campaign snapshot).
LADDER_DEPTH = 3


@dataclass(frozen=True)
class CheckpointRecord:
    """One decoded checkpoint line."""

    schema_version: int
    fingerprint: str
    run_id: str
    worker: str
    cycle: int
    cycles_total: Optional[int]
    restorable: bool
    #: JSON rendering of the :class:`CampaignState` (``None`` for pure
    #: progress reports, e.g. pilot-protocol mid-run cycle counts).
    state: Optional[Dict[str, Any]]
    written_at: float

    def campaign_state(self) -> CampaignState:
        """Decode the embedded state (only for restorable records)."""
        if not self.restorable or self.state is None:
            raise StoreError(
                f"checkpoint for run {self.run_id!r} at cycle {self.cycle} "
                "is a progress report, not a restorable state"
            )
        return CampaignState.from_dict(self.state)


class CheckpointStore:
    """Per-run cycle-checkpoint files under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)

    @property
    def directory(self) -> Path:
        return self._directory

    def path(self, fingerprint: str) -> Path:
        return self._directory / f"{fingerprint}.jsonl"

    def fingerprints(self) -> List[str]:
        """Runs with a checkpoint file, sorted."""
        if not self._directory.is_dir():
            return []
        return sorted(path.stem for path in self._directory.glob("*.jsonl"))

    # -- writes ---------------------------------------------------------------- #

    def save(
        self,
        fingerprint: str,
        state: CampaignState,
        *,
        run_id: str,
        worker: str,
    ) -> Path:
        """Append ``state`` as the run's newest checkpoint (atomic replace).

        The whole file is rewritten through a temp file + ``os.replace`` —
        the newest :data:`LADDER_DEPTH` prior lines (minus any torn tail)
        are carried forward so the previous-cycle fallback always has
        something to fall back to, without the file growing quadratically.
        """
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "run_id": run_id,
            "worker": worker,
            "cycle": state.cycle,
            "cycles_total": state.cycles_total,
            "restorable": bool(state.restorable and state.payload is not None),
            "state": state.as_dict() if state.restorable else None,
            "written_at": time.time(),
        }
        path = self.path(fingerprint)
        lines = self._raw_lines(path)[-(LADDER_DEPTH - 1):] if LADDER_DEPTH > 1 else []
        lines.append(json.dumps(record, sort_keys=True))
        # No per-cycle fsync: checkpoints accelerate recovery, they do not
        # gate correctness — a checkpoint lost to a power cut only costs
        # re-execution, while an fsync per cycle would dominate the runtime
        # of short campaigns.  os.replace still guarantees readers see the
        # old or the new ladder, never a torn file.  The write is the
        # ``checkpoint.save`` failpoint: an injected tear loses at most the
        # newest line(s), which the previous-cycle fallback absorbs.
        atomic_write_text(
            path, "\n".join(lines) + "\n", fsync=False,
            failpoint_site="checkpoint.save",
        )
        return path

    def discard(self, fingerprint: str) -> None:
        """Drop a run's checkpoints (after its finished record is stored)."""
        try:
            self.path(fingerprint).unlink()
        except FileNotFoundError:
            pass

    @staticmethod
    def _raw_lines(path: Path) -> List[str]:
        """Complete (newline-terminated, non-blank) lines of ``path``."""
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        lines = text.split("\n")
        if lines and lines[-1] != "":
            lines.pop()  # truncated tail from a torn write: drop it
        return [line for line in lines if line.strip()]

    # -- reads ----------------------------------------------------------------- #

    def _newest_first(self, fingerprint: str) -> Iterator[CheckpointRecord]:
        """A run's parseable checkpoints, newest first, each decoded when reached.

        Torn/garbled lines are skipped (that is the previous-cycle
        fallback); a line stamped with an unknown ``schema_version`` raises
        :class:`StoreError` when reached — a wrong-schema resume must fail
        loudly, not fall through to a silently stale cycle.
        """
        path = self.path(fingerprint)
        for line in reversed(self._raw_lines(path)):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line: fall back to neighbours
            if not isinstance(payload, dict):
                continue
            version = payload.get("schema_version")
            if version != CHECKPOINT_SCHEMA_VERSION:
                raise StoreError(
                    f"checkpoint {path} has schema_version {version!r}; this "
                    f"build reads version {CHECKPOINT_SCHEMA_VERSION}. Discard "
                    "the checkpoint (the run re-executes from the start) or "
                    "resume it with a matching build."
                )
            try:
                record = CheckpointRecord(
                    schema_version=version,
                    fingerprint=payload["fingerprint"],
                    run_id=payload["run_id"],
                    worker=payload["worker"],
                    cycle=payload["cycle"],
                    cycles_total=payload["cycles_total"],
                    restorable=payload["restorable"],
                    state=payload["state"],
                    written_at=payload["written_at"],
                )
            except KeyError:
                continue  # structurally incomplete line: skip like a torn one
            yield record

    def records(self, fingerprint: str) -> List[CheckpointRecord]:
        """Every parseable checkpoint of a run, oldest first."""
        return list(self._newest_first(fingerprint))[::-1]

    def latest(self, fingerprint: str) -> Optional[CheckpointRecord]:
        """The newest parseable checkpoint of a run, if any."""
        return next(self._newest_first(fingerprint), None)

    def latest_restorable(self, fingerprint: str) -> Optional[CampaignState]:
        """The newest checkpoint a fresh process can actually resume from.

        Walks the ladder newest-first past progress-only and torn entries;
        returns ``None`` when the run must start from the beginning.
        """
        for record in self._newest_first(fingerprint):
            if record.restorable and record.state is not None:
                return record.campaign_state()
        return None
