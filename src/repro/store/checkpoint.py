"""Fingerprint-keyed campaign checkpoints: the suspend/resume persistence.

A :class:`CheckpointStore` is a directory holding one JSONL file per run
(keyed by the run's :func:`~repro.store.fingerprint.run_fingerprint`), one
schema-version-stamped line per saved cycle boundary::

    checkpoints/<fingerprint>.jsonl
      {"schema_version": 5, "fingerprint": "…", "run_id": "cont-v-s0",
       "worker": "node1-4242", "written_at_ms": 1760000000123,
       "state": {…CampaignState…}}

Every line is a restore point: :meth:`CheckpointStore.save` refuses a state
that is not restorable, so a progress report (a pilot-protocol run's
per-cycle state, which cannot be saved yet) is never written here.  A save
is what encodes a live state (``CampaignState.as_dict``).  A running run's
progress rides its heartbeat lease instead (:mod:`repro.orchestrate.lease`),
which is where ``status`` reads it.

A line holds only evolving state (see :mod:`repro.core.snapshot`): target
structures are rebuilt from the run spec, so no coordinates are written,
a complex is written as its receptor sequence and backbone quality, and
the profiler as its resource rows and phase totals.  ``written_at_ms`` is
provenance only (integer Unix milliseconds, so two saves of one state
write lines of one length).

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
  written by any other layout (an older build's version 1 to 4 included)
  is rejected with a clear error, never half-parsed into a silently wrong
  resume.  So is a current-version line whose state does not decode.

Reads walk the ladder newest first and decode only until the first usable
line, so a resume decodes one snapshot, not the ladder.

Checkpoints are transient by design: the orchestration worker discards a
run's file once its finished record lands in the :class:`~repro.store.
runstore.RunStore` and the done marker is published.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.core.protocols import CampaignState
from repro.exceptions import CampaignError, StoreError
from repro.utils.serialization import atomic_write_text

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "CheckpointStore"]

#: Layout version stamped on every checkpoint line.  Version 2 encoded
#: complexes relative to their targets, each trajectory once and profiler
#: intervals as rows; version 3 dropped the line-level progress fields
#: (``cycle``, ``cycles_total``, ``restorable``): every line is a restore
#: point; version 4 writes a complex as its receptor sequence and backbone
#: quality, without the ``metadata`` copy of its target's peptide and seed
#: and its last fold's metrics; version 5 writes the profiler as its
#: resource rows and phase totals, without a per-task phase log, and stamps
#: ``written_at_ms`` (integer) for the float ``written_at``.
CHECKPOINT_SCHEMA_VERSION = 5

#: How many trailing ladder records a save keeps.  The torn-line fallback
#: only ever needs the *previous* cycle; keeping a couple more is cheap
#: insurance, while an unbounded ladder would grow quadratically (every
#: line carries the full campaign snapshot).
LADDER_DEPTH = 3


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

        ``state`` is encoded here, by :meth:`CampaignState.as_dict`.

        Raises
        ------
        StoreError
            If ``state`` is not restorable: a progress report restores nothing.
        """
        if not state.restorable:
            raise StoreError(
                f"run {run_id!r} at cycle {state.cycle} has no payload to "
                "restore from; only restore points are checkpointed"
            )
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "run_id": run_id,
            "worker": worker,
            "written_at_ms": int(time.time() * 1000),
            "state": state.as_dict(),
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

    def latest_restorable(self, fingerprint: str) -> Optional[CampaignState]:
        """The newest checkpoint a fresh process can resume from, if any.

        Walks the ladder newest first and decodes only until the first
        usable line.  Torn or garbled lines are skipped (that is the
        previous-cycle fallback); a line stamped with an unknown
        ``schema_version``, or one whose state does not decode, raises
        :class:`StoreError` when reached — a wrong-schema resume must fail
        loudly, not fall through to a silently stale cycle.  ``None`` means
        the run starts from the beginning.
        """
        path = self.path(fingerprint)
        for line in reversed(self._raw_lines(path)):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line: fall back to neighbours
            if not isinstance(record, dict):
                continue
            version = record.get("schema_version")
            if version != CHECKPOINT_SCHEMA_VERSION:
                raise StoreError(
                    f"checkpoint {path} has schema_version {version!r}; this "
                    f"build reads version {CHECKPOINT_SCHEMA_VERSION}. Discard "
                    "the checkpoint (the run re-executes from the start) or "
                    "resume it with a matching build."
                )
            state = record.get("state")
            if not isinstance(state, dict):
                continue  # structurally incomplete line: skip like a torn one
            try:
                return CampaignState.from_dict(state)
            except CampaignError as error:
                raise StoreError(f"checkpoint {path} holds {error}") from error
        return None
