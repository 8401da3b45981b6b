"""JSON serialization helpers.

Campaign results, traces and benchmark outputs are persisted as JSON so that
the analysis layer and external tooling can consume them.  NumPy scalars and
arrays, dataclasses and enums are converted to plain Python types first.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import threading
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.faults import registry as faults

__all__ = ["atomic_write_text", "to_jsonable", "dump_json"]


def atomic_write_text(
    path: Union[str, Path], text: str, *, fsync: bool = True,
    failpoint_site: Optional[str] = None,
) -> None:
    """Write ``text`` to ``path`` via a temp file + ``os.replace``.

    Readers either see the previous content or the full new content, never a
    torn file — ``os.replace`` is atomic on POSIX and Windows.  The temp file
    name carries the pid *and* thread id so concurrent writers to one target
    (other processes, or worker threads sharing a process) cannot collide on
    the temp path itself; the name *ends* in ``.tmp-…`` (rather than the
    target's own suffix) so a temp file stranded by a crash before the
    rename can never satisfy a ``*.json``/``*.jsonl`` directory glob — the
    work queue's marker listings and the checkpoint store's fingerprint scan
    must not mistake staged bytes for published state.  ``fsync=False``
    skips the flush-to-disk barrier for writes whose loss only costs
    recomputation (e.g. checkpoints).

    ``failpoint_site`` names this write's seam in the deterministic
    fault-injection registry (:mod:`repro.faults`): durability-critical
    callers pass their site so a chaos plan can tear this write, fail it
    with ``EIO``/``ENOSPC``, stall it, or kill the process on either side of
    the commit point.  ``None`` (the default) skips injection entirely.

    The single definition of the write-temp-then-replace pattern used by the
    work queue's coordination files and the checkpoint store.
    """
    path = Path(path)
    event = faults.failpoint(failpoint_site) if failpoint_site else None
    if event is not None:
        if event.kind in ("io_error", "enospc"):
            faults.raise_error(event)
        if event.kind == "torn_write":
            # A non-atomic filesystem tearing the write in place: a prefix
            # of the payload lands at the *final* path, then the write
            # fails.  Readers must degrade (mtime leases, torn-tail skips).
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8", newline="\n") as handle:
                handle.write(text[: max(1, len(text) // 2)])
                handle.flush()
            faults.raise_error(event)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = (
        path.parent
        / f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
    )
    with temp.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        if event is not None and event.kind == "crash_before_rename":
            os.fsync(handle.fileno())
            faults.crash(event)
    os.replace(temp, path)
    if event is not None and event.kind == "crash_after_write":
        faults.crash(event)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable builtins.

    Supported conversions:

    * dataclass instances -> dict (via :func:`dataclasses.asdict`-like walk
      that preserves nested conversion rules),
    * :class:`enum.Enum` -> its ``value``,
    * NumPy scalars -> Python scalars, NumPy arrays -> nested lists,
    * sets and tuples -> lists,
    * mappings and sequences -> recursively converted copies.

    Objects exposing an ``as_dict()`` method are converted through it.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if hasattr(obj, "as_dict") and callable(obj.as_dict):
        return to_jsonable(obj.as_dict())
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"object of type {type(obj).__name__} is not JSON-convertible")


def dump_json(obj: Any, path: Union[str, Path], *, indent: int = 2) -> Path:
    """Serialise ``obj`` to JSON at ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(obj), indent=indent, sort_keys=False))
    return path
