"""Queue-level views: progress snapshots and the finalize merge.

These are the read-side of the orchestration protocol — nothing here takes a
lease.  ``status`` works on a live queue (other processes keep mutating it)
and reads markers and claim files only: a running run's cycle progress rides
its heartbeat lease, so no checkpoint is decoded.  ``finalize`` is meant for
a drained queue and verifies completeness before merging the per-worker
stores into one canonical artifact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.progress import QueueProgress, RunInFlight
from repro.exceptions import OrchestrationError
from repro.orchestrate.lease import read_lease
from repro.orchestrate.queue import WorkQueue
from repro.orchestrate.worker import DEFAULT_LEASE_SECONDS
from repro.store.runstore import RunStore, merge_stores, prune_store
from repro.telemetry import api as telemetry

__all__ = ["queue_progress", "finalize_queue"]


def queue_progress(
    queue: Union[str, Path, WorkQueue],
    *,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    now: Optional[float] = None,
) -> QueueProgress:
    """Snapshot ``queue`` into a :class:`QueueProgress`.

    ``lease_seconds`` only affects the live/stale split of claimed runs (the
    observer must use the same lease the workers do for the split to mean
    anything); it takes no part in completion accounting.  A running run's
    cycle is the one its owner's last heartbeat wrote into the claim.
    """
    queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
    clock = time.time() if now is None else now
    entries = queue.entries()
    n_done = n_running = n_stale = n_unclaimed = n_failed = 0
    done_by_worker: Dict[str, int] = {}
    running: List[RunInFlight] = []
    done_wall = 0.0
    completed_at: List[float] = []
    for entry in entries:
        record = queue.done_record(entry.fingerprint)
        if record is not None:
            n_done += 1
            worker = str(record.get("worker", "<unknown>"))
            done_by_worker[worker] = done_by_worker.get(worker, 0) + 1
            done_wall += float(record.get("wall_seconds", 0.0))
            if "completed_at" in record:
                completed_at.append(float(record["completed_at"]))
            continue
        if queue.is_failed(entry.fingerprint):
            n_failed += 1
            continue
        lease = read_lease(queue.claim_path(entry.fingerprint))
        if lease is None:
            n_unclaimed += 1
        elif lease.expired(lease_seconds, clock):
            n_stale += 1
        else:
            n_running += 1
            running.append(
                RunInFlight(
                    run_id=entry.spec.run_id,
                    worker=lease.worker,
                    lease_age=lease.age(clock),
                    cycle=lease.cycle,
                    cycles_total=lease.cycles_total,
                )
            )
    return QueueProgress(
        n_runs=len(entries),
        n_done=n_done,
        n_running=n_running,
        n_stale=n_stale,
        n_unclaimed=n_unclaimed,
        n_failed=n_failed,
        done_by_worker=done_by_worker,
        running=running,
        done_wall_seconds=done_wall,
        completion_span=(
            (min(completed_at), max(completed_at)) if completed_at else None
        ),
    )


def finalize_queue(
    queue: Union[str, Path, WorkQueue],
    output: Union[str, Path],
    *,
    require_complete: bool = True,
    strip_timing: bool = False,
    extra_stores: Optional[List[Union[str, Path]]] = None,
) -> RunStore:
    """Merge every per-worker store into one canonical store at ``output``.

    The merged file is fingerprint-sorted (via
    :func:`~repro.store.runstore.merge_stores`), so for a fixed sweep its
    science bytes do not depend on worker count, claim interleaving or steal
    history; with ``strip_timing=True`` the per-run ``wall_seconds`` — the
    only honestly execution-dependent field — is zeroed as well, making the
    output *byte-identical* to a serial
    ``CampaignSuite.run(store=...)`` store canonicalised the same way
    (``python -m repro.store prune --strip-timing``).  That is the
    distributed extension of the determinism contract.

    ``require_complete`` (default) refuses to finalize while manifest runs
    lack done markers — naming permanently *failed* runs (retry budget
    spent) separately from merely unfinished ones — and pass
    ``extra_stores`` for workers that streamed to paths outside
    ``<queue>/stores/``.
    """
    queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
    entries = queue.entries()
    failed = [
        entry.spec.run_id
        for entry in entries
        if queue.is_failed(entry.fingerprint)
        and not queue.is_done(entry.fingerprint)
    ]
    missing = [
        entry.spec.run_id
        for entry in entries
        if not queue.is_done(entry.fingerprint)
        and not queue.is_failed(entry.fingerprint)
    ]
    if failed and require_complete:
        raise OrchestrationError(
            f"queue {queue.path} has {len(failed)} permanently failed run(s) "
            f"({', '.join(failed[:6])}{', …' if len(failed) > 6 else ''}); "
            "fix the cause and delete the failed/ markers to retry (the runs "
            "resume from their last checkpoint), or pass --partial to merge "
            "the survivors"
        )
    if missing and require_complete:
        raise OrchestrationError(
            f"queue {queue.path} is not drained: {len(missing)} of "
            f"{len(entries)} runs lack done markers "
            f"({', '.join(missing[:6])}{', …' if len(missing) > 6 else ''}); "
            "run more workers, or pass --partial to merge what exists"
        )
    stores = [Path(path) for path in queue.worker_store_paths()]
    stores.extend(Path(path) for path in (extra_stores or []))
    if not stores:
        raise OrchestrationError(
            f"queue {queue.path} has no worker stores to merge"
        )
    with telemetry.span(
        "queue.finalize",
        queue=str(queue.path),
        n_runs=len(entries),
        n_stores=len(stores),
    ):
        merged = merge_stores(stores, output)
        lost = sorted(
            {entry.fingerprint for entry in entries} - set(merged.fingerprints())
        )
        if require_complete and lost:
            # Done markers without backing records means a store file was lost.
            raise OrchestrationError(
                f"finalized store is missing {len(lost)} fingerprint(s) that "
                f"have done markers (first: {lost[0][:12]}…); a per-worker "
                "store file is missing or was written outside the queue (pass "
                "it via --extra-store)"
            )
        if strip_timing:
            merged = prune_store(merged.path, strip_timing=True)
    return merged
