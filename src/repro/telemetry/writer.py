"""Schema-stamped JSONL telemetry records: the writer and the readers.

One telemetry stream is one append-only JSONL file — typically
``<queue>/telemetry/<worker_id>.jsonl`` — with one record per line::

    {"v": 1, "kind": "event", "name": "lease.steal", "at": 1699.2,
     "pid": 4242, "worker": "w0", "attrs": {"claim": "ab12…"}}
    {"v": 1, "kind": "span", "name": "worker.run", "start": 1699.3,
     "end": 1712.9, "ok": true, "pid": 4242, "worker": "w0",
     "attrs": {"run": "im-rp-s3"}}
    {"v": 1, "kind": "metric", "name": "campaign.cycle_seconds",
     "metric": "histogram", "value": 0.8, "at": 1699.4, "pid": 4242,
     "worker": "w0", "attrs": {"run": "im-rp-s3"}}

Design constraints, in order of importance:

* **out-of-band** — telemetry observes the fleet, it never participates in
  it: no failpoint crossings, no science RNG draws, and every write is
  best-effort (an ``OSError`` while logging is swallowed, the observed
  operation proceeds untouched).  The byte-identity contracts hold with
  telemetry on.
* **crash-tolerant like the stores** — each record is one line, written and
  flushed in a single call under a lock; a SIGKILL mid-write leaves at most
  one torn final line, which the readers skip exactly as
  :class:`~repro.store.runstore.RunStore` heals its tail.
* **versioned** — lines carry ``v``; a stream written by a newer
  incompatible layout is rejected with :class:`TelemetryError` instead of
  being half-parsed.

This module is a leaf: stdlib only, importable from anywhere in the package
(including :mod:`repro.faults`, which routes fired-fault events through it).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Collection, Dict, Iterator, List, Optional, Union

from repro.exceptions import TelemetryError

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryWriter",
    "iter_telemetry_file",
    "read_telemetry_dir",
]

#: Layout version stamped on every telemetry line.
TELEMETRY_SCHEMA_VERSION = 1


def _record_time(record: Dict[str, Any]) -> float:
    """Sort key: when the record was observed (span start / event point)."""
    if record.get("kind") == "span":
        return float(record.get("start", 0.0))
    return float(record.get("at", 0.0))


class TelemetryWriter:
    """Locked, best-effort, line-at-a-time appender for one telemetry file.

    One writer per stream file; the worker id it was opened with is the
    default ``worker`` label of every record (overridable per record, which
    is how in-process multi-worker tests and helper threads stay honest).
    Writes flush to the OS but do not fsync — losing the last instants of
    telemetry in a power failure is acceptable, slowing every observed
    operation by a disk round-trip is not.
    """

    def __init__(self, path: Union[str, Path], worker: Optional[str] = None) -> None:
        self._path = Path(path)
        self._worker = worker
        self._lock = threading.Lock()
        self._handle = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def worker(self) -> Optional[str]:
        return self._worker

    def write_span(
        self,
        name: str,
        start: float,
        end: float,
        ok: bool,
        attrs: Optional[Dict[str, Any]] = None,
        worker: Optional[str] = None,
    ) -> None:
        self._write_record(
            "span", name, attrs, worker, {"start": start, "end": end, "ok": bool(ok)}
        )

    def write_event(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        at: Optional[float] = None,
        worker: Optional[str] = None,
    ) -> None:
        self._write_record(
            "event", name, attrs, worker, {"at": time.time() if at is None else at}
        )

    def write_metric(
        self,
        name: str,
        value: float,
        metric: str,
        attrs: Optional[Dict[str, Any]] = None,
        at: Optional[float] = None,
        worker: Optional[str] = None,
    ) -> None:
        """Append one metric sample (``metric`` is counter/gauge/histogram).

        Metric records ride the same schema version as spans and events —
        older readers that only consume ``span``/``event`` kinds skip them
        without error, which is why adding the kind is not a version bump.
        """
        self._write_record(
            "metric",
            name,
            attrs,
            worker,
            {
                "metric": metric,
                "value": float(value),
                "at": time.time() if at is None else at,
            },
        )

    def _write_record(
        self,
        kind: str,
        name: str,
        attrs: Optional[Dict[str, Any]],
        worker: Optional[str],
        record: Dict[str, Any],
    ) -> None:
        """Add the envelope every kind shares to ``record``, then write it."""
        record.update(
            v=TELEMETRY_SCHEMA_VERSION,
            kind=kind,
            name=name,
            pid=os.getpid(),
            worker=worker if worker is not None else self._worker,
            attrs=dict(attrs or {}),
        )
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        # Serialise outside the lock, write-and-flush inside it: one line per
        # record, so a crash tears at most the final line.  Telemetry must
        # never break the operation it observes, so I/O failures (full disk,
        # unwritable directory) are swallowed here, not propagated.
        try:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
        except (TypeError, ValueError):
            return
        try:
            with self._lock:
                if self._handle is None:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    self._handle = self._path.open("a", encoding="utf-8")
                self._handle.write(line)
                self._handle.flush()
        except OSError:
            pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


def iter_telemetry_file(
    path: Union[str, Path],
    kinds: Optional[Collection[str]] = None,
    names: Optional[Collection[str]] = None,
) -> Iterator[Dict[str, Any]]:
    """Stream the records of one telemetry file, skipping the torn tail.

    Unparsable lines are ignored (a crashing process tears at most its final
    line; mid-file garbage is indistinguishable and equally skippable), but a
    record from a *newer schema* is a hard :class:`TelemetryError` — silently
    misreading it would corrupt a timeline, not just shorten it.

    ``kinds`` / ``names`` restrict what is yielded (``None`` means no
    filter), so readers that only want spans — or one metric's samples — do
    not materialise every record of a large stream.  Schema validation still
    covers every line: filtering selects records, it must not mask a stream
    this build cannot read.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        version = record.get("v")
        if not isinstance(version, int) or version < 1:
            continue
        if version > TELEMETRY_SCHEMA_VERSION:
            raise TelemetryError(
                f"telemetry file {path} carries schema v{version}, newer than "
                f"this build's v{TELEMETRY_SCHEMA_VERSION}; upgrade to read it"
            )
        if kinds is not None and record.get("kind") not in kinds:
            continue
        if names is not None and record.get("name") not in names:
            continue
        yield record


def read_telemetry_dir(
    directory: Union[str, Path],
    kinds: Optional[Collection[str]] = None,
    names: Optional[Collection[str]] = None,
) -> List[Dict[str, Any]]:
    """Every record under ``directory`` (``*.jsonl``), time-sorted.

    The sort is stable, so records observed at the same instant keep their
    per-file order.  A missing directory reads as an empty fleet.
    ``kinds`` / ``names`` filter exactly as in :func:`iter_telemetry_file`.
    """
    directory = Path(directory)
    records: List[Dict[str, Any]] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.jsonl")):
        records.extend(iter_telemetry_file(path, kinds=kinds, names=names))
    records.sort(key=_record_time)
    return records
