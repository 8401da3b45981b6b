"""The persistent run store: append-only JSONL keyed by RunSpec fingerprint.

One store is one JSONL file — one line per finished campaign run, each line a
self-describing JSON object::

    {"schema_version": 1, "fingerprint": "…sha256…", "run_id": "im-rp-s0",
     "wall_seconds": 0.42, "spec": {…tagged…}, "result": {…CampaignResult…}}

Properties the suite engine relies on:

* **append-only, crash-safe** — every record is written as one line and
  flushed (+ ``fsync``) before ``append`` returns; a crash mid-write leaves
  at most one truncated final line, which :class:`RunStore` detects and
  ignores on the next open (the run simply re-executes).
* **fingerprint-keyed** — the index maps
  :func:`~repro.store.fingerprint.run_fingerprint` to the byte offset of the
  newest line for that identity (later lines win), so membership tests are
  O(1) and record loads are lazy ``seek``-and-parse, never a whole-file
  materialisation.
* **versioned** — lines carry ``schema_version``; a store written by a newer
  incompatible layout is rejected with a clear error instead of being
  half-parsed.

Multiple processes may *read* a store concurrently; concurrent writers must
use separate store files (that is what sweep sharding does) and combine them
with :func:`merge_stores`, which dedupes by fingerprint, refuses conflicting
payloads, and emits records in canonical (fingerprint-sorted) order so any
shard interleaving merges to byte-identical output.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.faults import registry as faults
from repro.core.results import net_deltas_from_summary
from repro.telemetry import api as telemetry
from repro.exceptions import StoreError
from repro.experiments.spec import RunSpec
from repro.experiments.suite import SuiteRunRecord
from repro.store.codec import decode_run_spec, encode_run_spec
from repro.store.fingerprint import run_fingerprint
from repro.utils.serialization import to_jsonable

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoredCampaignResult",
    "StoredRun",
    "RunStore",
    "merge_stores",
    "prune_store",
]

#: Layout version stamped on every store line.
STORE_SCHEMA_VERSION = 1


class StoredCampaignResult:
    """Read-only result view reloaded from a store line.

    Duck-types the slice of :class:`~repro.core.results.CampaignResult` that
    the suite engine, the CLI tables and :func:`~repro.analysis.comparison.
    protocol_matrix` consume, backed by the persisted ``result`` payload —
    the full pipeline/trajectory objects are *not* resurrected, which is what
    keeps reloading a large store cheap.  ``as_dict()`` returns the stored
    payload verbatim, so a cached record serialises bit-identically to the
    fresh record it was written from.
    """

    __slots__ = ("_payload",)

    def __init__(self, payload: Dict[str, Any]) -> None:
        self._payload = payload

    # -- scalar fields -------------------------------------------------------- #

    @property
    def approach(self) -> str:
        return self._payload["approach"]

    @property
    def protocol(self) -> str:
        return self._payload["protocol"]

    @property
    def seed(self) -> int:
        return self._payload["seed"]

    @property
    def n_cycles(self) -> int:
        return self._payload["n_cycles"]

    @property
    def targets(self) -> List[str]:
        return list(self._payload["targets"])

    @property
    def n_pipelines(self) -> int:
        return self._payload["n_pipelines"]

    @property
    def n_subpipelines(self) -> int:
        return self._payload["n_subpipelines"]

    @property
    def n_trajectories(self) -> int:
        return self._payload["n_trajectories"]

    @property
    def makespan_hours(self) -> float:
        return self._payload["makespan_hours"]

    @property
    def total_task_hours(self) -> float:
        return self._payload["total_task_hours"]

    @property
    def cpu_utilization(self) -> float:
        return self._payload["cpu_utilization"]

    @property
    def gpu_utilization(self) -> float:
        return self._payload["gpu_utilization"]

    @property
    def phase_totals(self) -> Dict[str, float]:
        return dict(self._payload["phase_totals"])

    # -- derived quantities --------------------------------------------------- #

    def iteration_summary(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """The persisted Fig 2/3 series (JSON string keys restored to ints)."""
        return {
            int(iteration): series
            for iteration, series in self._payload["iteration_summary"].items()
        }

    def net_deltas(self) -> Dict[str, float]:
        """Same arithmetic as :meth:`CampaignResult.net_deltas` (shared helper)."""
        return net_deltas_from_summary(self.iteration_summary())

    def as_dict(self) -> Dict[str, Any]:
        """The stored payload, verbatim (treat as read-only)."""
        return self._payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoredCampaignResult(protocol={self.protocol!r}, seed={self.seed}, "
            f"n_trajectories={self.n_trajectories})"
        )


@dataclass(frozen=True)
class StoredRun:
    """One reloaded store line: identity, spec, result view and timing."""

    schema_version: int
    fingerprint: str
    run_id: str
    wall_seconds: float
    spec: RunSpec
    result: StoredCampaignResult

    def as_record(self, spec: Optional[RunSpec] = None) -> SuiteRunRecord:
        """Adapt to a cached :class:`SuiteRunRecord`.

        ``spec`` lets the resuming suite substitute *its own* expanded spec
        object (identical by construction — the fingerprint matched) so merged
        results reference one consistent sweep expansion.
        """
        return SuiteRunRecord(
            spec=spec if spec is not None else self.spec,
            result=self.result,  # type: ignore[arg-type]  (duck-typed view)
            wall_seconds=self.wall_seconds,
            cached=True,
        )


def _parse_line(line: str, path: Path, line_number: int) -> Dict[str, Any]:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise StoreError(
            f"corrupt run store {path} at line {line_number}: {error}"
        ) from error
    if not isinstance(payload, dict) or "fingerprint" not in payload:
        raise StoreError(
            f"corrupt run store {path} at line {line_number}: not a run record"
        )
    version = payload.get("schema_version")
    if version != STORE_SCHEMA_VERSION:
        raise StoreError(
            f"run store {path} line {line_number} has schema_version "
            f"{version!r}; this build reads version {STORE_SCHEMA_VERSION}. "
            "Re-run the sweep with a matching build."
        )
    return payload


def _stored_run(payload: Dict[str, Any]) -> StoredRun:
    return StoredRun(
        schema_version=payload["schema_version"],
        fingerprint=payload["fingerprint"],
        run_id=payload["run_id"],
        wall_seconds=payload["wall_seconds"],
        spec=decode_run_spec(payload["spec"]),
        result=StoredCampaignResult(payload["result"]),
    )


class RunStore:
    """Fingerprint-keyed persistent store over one append-only JSONL file.

    Opening a store scans the file once to build the in-memory
    ``fingerprint -> byte offset`` index (records themselves load lazily);
    a missing file is an empty store that materialises on first append.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._index: Dict[str, int] = {}
        #: Byte offset of a truncated (crash-interrupted) final line, if any;
        #: the next append overwrites from here.
        self._truncate_to: Optional[int] = None
        self._scan()

    # -- identity ------------------------------------------------------------- #

    @property
    def path(self) -> Path:
        return self._path

    def fingerprint(self, spec: RunSpec) -> str:
        """The store key for ``spec`` (see :func:`run_fingerprint`)."""
        return run_fingerprint(spec)

    # -- index ---------------------------------------------------------------- #

    def _scan(self) -> None:
        if not self._path.exists():
            return
        if not self._path.is_file():
            raise StoreError(f"run store {self._path} is not a regular file")
        # newline="" disables newline translation so byte offsets computed
        # from line lengths stay correct on every platform.
        with self._path.open("r", encoding="utf-8", newline="") as handle:
            offset = 0
            line_number = 0
            for line in handle:
                line_number += 1
                start = offset
                offset += len(line.encode("utf-8"))
                if not line.endswith("\n"):
                    # Truncated final line from a crash mid-append: ignore it;
                    # the next append overwrites from this offset.
                    self._truncate_to = start
                    break
                if not line.strip():
                    continue
                payload = _parse_line(line, self._path, line_number)
                self._index[payload["fingerprint"]] = start

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def fingerprints(self) -> List[str]:
        """Stored fingerprints in first-seen file order."""
        return list(self._index)

    # -- reads ---------------------------------------------------------------- #

    def get(self, fingerprint: str) -> StoredRun:
        """Lazily load the newest record for ``fingerprint``."""
        try:
            offset = self._index[fingerprint]
        except KeyError:
            raise StoreError(
                f"no run with fingerprint {fingerprint!r} in store {self._path}"
            ) from None
        with self._path.open("r", encoding="utf-8", newline="") as handle:
            handle.seek(offset)
            line = handle.readline()
        return _stored_run(_parse_line(line, self._path, -1))

    def iter_payloads(self) -> Iterator[Dict[str, Any]]:
        """Stream every stored line's parsed payload over one file handle."""
        if not self._index:
            return
        with self._path.open("r", encoding="utf-8", newline="") as handle:
            for offset in self._index.values():
                handle.seek(offset)
                line = handle.readline()
                yield _parse_line(line, self._path, -1)

    def iter_records(self) -> Iterator[StoredRun]:
        """Stream every stored run (one at a time, first-seen order)."""
        for payload in self.iter_payloads():
            yield _stored_run(payload)

    def records(self) -> List[StoredRun]:
        return list(self.iter_records())

    # -- writes --------------------------------------------------------------- #

    def append(
        self, record: SuiteRunRecord, *, fingerprint: Optional[str] = None
    ) -> str:
        """Stream one finished run to disk; returns its fingerprint.

        The line is fully serialised before the file is touched, then written
        and flushed in one call — a crash can truncate the final line but
        never corrupt an earlier one.  (Flush-to-OS, not fsync: a process
        crash loses nothing, and skipping the per-run fsync keeps streaming
        overhead negligible on the suite's hot path.)

        The write is the ``store.append`` failpoint (:mod:`repro.faults`):
        an injected ``torn_write`` persists a prefix of the line and raises
        — recorded as a truncated tail, so a same-process retry (or the next
        open's torn-tail scan) overwrites it exactly as a real crash would
        be healed; ``crash_after_write`` kills the process after the line
        landed, exercising the append-without-marker heal window.
        """
        fingerprint = fingerprint or self.fingerprint(record.spec)
        event = faults.failpoint("store.append")
        if event is not None and event.kind in ("io_error", "enospc"):
            faults.raise_error(event)
        payload = {
            "schema_version": STORE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "run_id": record.spec.run_id,
            "wall_seconds": record.wall_seconds,
            "spec": encode_run_spec(record.spec),
            "result": to_jsonable(record.result.as_dict()),
        }
        line = json.dumps(to_jsonable(payload), sort_keys=True) + "\n"
        self._path.parent.mkdir(parents=True, exist_ok=True)
        mode = "r+b" if self._path.exists() else "wb"
        with self._path.open(mode) as handle:
            if self._truncate_to is not None:
                handle.truncate(self._truncate_to)
                handle.seek(self._truncate_to)
                self._truncate_to = None
            else:
                handle.seek(0, os.SEEK_END)
            offset = handle.tell()
            data = line.encode("utf-8")
            if event is not None and event.kind == "torn_write":
                handle.write(data[: max(1, len(data) // 2)])
                handle.flush()
                # The torn bytes are a crash-shaped tail: the next append
                # (retry or a fresh open) truncates and overwrites them.
                self._truncate_to = offset
                faults.raise_error(event)
            handle.write(data)
            handle.flush()
        self._index[fingerprint] = offset
        telemetry.event(
            "store.append",
            store=self._path.name,
            fingerprint=fingerprint,
            run=record.spec.run_id,
            bytes=len(data),
        )
        if event is not None and event.kind == "crash_after_write":
            faults.crash(event)
        return fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunStore({str(self._path)!r}, n_runs={len(self)})"


def _science_identity(payload: Dict[str, Any]) -> str:
    """What two records for one fingerprint must agree on to be mergeable.

    Spec (minus the presentation ``run_id``) and result — the quantities the
    determinism contract fixes.  ``wall_seconds`` is honest timing and
    legitimately differs between executions of the same cell.
    """
    spec = {key: value for key, value in payload["spec"].items() if key != "run_id"}
    return json.dumps({"spec": spec, "result": payload["result"]}, sort_keys=True)


def _write_canonical(
    payloads: Dict[str, Dict[str, Any]], output_path: Path
) -> None:
    """Write ``fingerprint -> payload`` in the canonical store layout.

    The single definition of "canonical bytes" — fingerprint-sorted lines,
    ``json.dumps(..., sort_keys=True)``, ``\\n`` newlines, fsync'd — shared
    by :func:`merge_stores` and :func:`prune_store` so the cross-tool
    byte-identity contract (merged orchestrated store vs pruned serial
    store) cannot drift between the two writers.
    """
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with output_path.open("w", encoding="utf-8", newline="\n") as handle:
        for fingerprint in sorted(payloads):
            handle.write(json.dumps(payloads[fingerprint], sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def merge_stores(
    inputs: Sequence[Union[str, Path, RunStore]],
    output: Union[str, Path],
) -> RunStore:
    """Merge several stores into ``output``, deduplicating by fingerprint.

    Records appearing in more than one input must agree on spec and result
    (true for seeded runs by the determinism contract; timing and run-id
    labels may differ — the first-seen record wins); a genuinely conflicting
    duplicate raises :class:`StoreError` rather than silently picking a side.
    Output lines are sorted by fingerprint, so merging the stores of a
    sweep's ``n`` shards yields a file byte-identical to merging the
    equivalent unsharded store.
    """
    merged: Dict[str, Tuple[Dict[str, Any], str]] = {}
    for source in inputs:
        if not isinstance(source, RunStore) and not Path(source).exists():
            raise StoreError(f"cannot merge missing store {source}")
        store = source if isinstance(source, RunStore) else RunStore(source)
        for payload in store.iter_payloads():
            fingerprint = payload["fingerprint"]
            identity = _science_identity(payload)
            if fingerprint in merged:
                if merged[fingerprint][1] != identity:
                    raise StoreError(
                        f"conflicting records for fingerprint {fingerprint!r} "
                        f"(run {payload.get('run_id')!r}) while merging into "
                        f"{output}; stores disagree on the spec/result payload"
                    )
                continue
            merged[fingerprint] = (payload, identity)
    output_path = Path(output)
    _write_canonical(
        {fingerprint: payload for fingerprint, (payload, _) in merged.items()},
        output_path,
    )
    telemetry.event(
        "store.merge",
        output=output_path.name,
        n_inputs=len(inputs),
        n_records=len(merged),
    )
    return RunStore(output_path)


def prune_store(
    path: Union[str, Path],
    output: Optional[Union[str, Path]] = None,
    *,
    strip_timing: bool = False,
) -> RunStore:
    """Compact a store to its canonical form (gc + sort), optionally in place.

    Appends never rewrite history, so a long-lived store accumulates
    superseded lines — older records for a fingerprint that was re-appended —
    and possibly one torn final line from a crash.  Pruning keeps exactly the
    *newest* record per fingerprint (the one :class:`RunStore` already
    serves), drops the torn tail, and writes the survivors fingerprint-sorted
    — the same canonical layout :func:`merge_stores` emits, so a pruned store
    is byte-stable under further pruning.

    ``strip_timing=True`` additionally zeroes each record's ``wall_seconds``
    (the only field that honestly varies between executions of the same
    sweep), which makes stores from *different* executions — serial suite
    vs. orchestrated workers — byte-comparable.  The science payload (spec
    and result) is never altered.

    With ``output=None`` the store is replaced atomically (write-temp +
    ``os.replace``); a crash mid-prune leaves the original intact.
    """
    store = RunStore(path)  # newest-line-per-fingerprint index, torn tail skipped
    survivors: Dict[str, Dict[str, Any]] = {}
    for payload in store.iter_payloads():
        if strip_timing:
            payload = dict(payload, wall_seconds=0.0)
        survivors[payload["fingerprint"]] = payload
    in_place = output is None
    output_path = (
        store.path.parent
        / f".prune-{os.getpid()}-{threading.get_ident()}-{store.path.name}"
        if in_place
        else Path(output)
    )
    _write_canonical(survivors, output_path)
    if in_place:
        os.replace(output_path, store.path)
        output_path = store.path
    return RunStore(output_path)
