"""The worker loop: claim, execute, stream, mark done — until the sweep drains.

One worker is one ``run_worker`` call (typically one
``python -m repro.orchestrate worker`` process, possibly on another node
sharing the queue directory).  Each pass over the manifest the worker:

1. skips runs with a done marker or a permanent-failure marker;
2. heals its own crash window — a fingerprint already in *its* store but not
   marked done (the crash happened between append and marker) is marked done
   without re-executing;
3. claims the first available run (``O_EXCL`` create, or stealing a claim
   whose lease expired — that is the dynamic balancing: a fast worker drains
   what a slow or dead one cannot) and executes it under a heartbeat,
   **resuming from the last restorable cycle checkpoint** when one exists —
   a stolen half-finished campaign re-executes at most one cycle, not the
   whole run;
4. hands each state's cycle progress to its heartbeat, which writes it into
   the claim, and streams a checkpoint per completed cycle for restorable
   states (pilot-protocol runs, whose per-cycle states cannot be saved yet,
   write none; a state is encoded only when saved, so a state the
   throttle skips costs nothing); then appends the finished record to its
   per-worker :class:`~repro.store.RunStore`, publishes the done marker, and
   discards the run's checkpoints.

Deterministically failing runs are governed by ``max_attempts``: with the
default (1) a failure releases the claim and fails fast, exactly as before;
with a budget ``N > 1`` the worker retries in place (the attempt count rides
in the claim file, so it survives steals) and, once the budget is spent,
publishes a ``failed/`` marker and moves on — the queue still drains, and
``finalize`` names the failed runs instead of hanging.

When nothing is claimable the worker either sleeps and re-polls (default:
someone must outlive stalled peers to steal their leases) or returns
(``wait=False``, for fixed-size worker fleets whose launcher re-invokes or
finalizes).  The loop ends when every manifest run has a done (or failed)
marker.
"""

from __future__ import annotations

import contextvars
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.core.protocols import CampaignState
from repro.core.results import CampaignResult
from repro.exceptions import OrchestrationError, StoreError
from repro.experiments.spec import shared_target_builds
from repro.experiments.suite import SuiteRunRecord, execute_run
from repro.orchestrate.lease import (
    Heartbeat,
    read_lease,
    refresh_lease,
    release_claim,
    try_claim,
    try_steal,
)
from repro.orchestrate.queue import QueueEntry, WorkQueue, validate_worker_id
from repro.store.checkpoint import CheckpointStore
from repro.store.runstore import RunStore
from repro.telemetry import api as telemetry
from repro.telemetry import metrics
from repro.telemetry.resources import start_resource_sampler
from repro.utils.retrying import call_with_retries

__all__ = ["RunTimeout", "WorkerOutcome", "default_worker_id", "run_worker"]

#: Seconds a claim may go without a heartbeat before peers may steal it.
DEFAULT_LEASE_SECONDS = 30.0

#: Seconds an idle (nothing claimable) worker sleeps between manifest passes.
DEFAULT_POLL_SECONDS = 0.5

#: Minimum wall-clock spacing between checkpoint saves of one run.  Real
#: campaign cycles take minutes to hours, so every cycle checkpoints; the
#: throttle only kicks in for sub-second simulated runs, where per-cycle
#: serialisation would dominate and a preempted run loses at most this much
#: work anyway.  ``0`` checkpoints every cycle unconditionally.
DEFAULT_CHECKPOINT_SECONDS = 1.0


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per live worker process, path-safe."""
    host = socket.gethostname().replace("/", "-") or "worker"
    return f"{host}-{os.getpid()}"


class RunTimeout(OrchestrationError):
    """A run exceeded the per-run wall-clock watchdog (``--run-timeout``)."""


class _Abandoned(BaseException):
    """Raised inside an abandoned attempt's cycle hook to stop the zombie.

    Derives from :class:`BaseException` so campaign code catching broad
    ``Exception`` (retry shims and the like) cannot swallow it.
    """


@dataclass
class WorkerOutcome:
    """What one worker contributed to the sweep."""

    worker_id: str
    store_path: Path
    #: Run ids this worker executed (in execution order).
    executed: List[str] = field(default_factory=list)
    #: Executed run ids that were stolen from an expired lease.
    stolen: List[str] = field(default_factory=list)
    #: ``(run_id, cycle)`` pairs resumed from a checkpoint instead of
    #: starting over (the cycle is where execution picked back up).
    resumed: List[Tuple[str, int]] = field(default_factory=list)
    #: Run ids that exhausted their retry budget (failed marker published).
    failed: List[str] = field(default_factory=list)
    #: Run ids quarantined as poison: their claims had been crash-stolen
    #: ``max_attempts`` times, so instead of executing (and presumably dying
    #: too) this worker published a ``failed/`` marker with reason
    #: ``poison``.  Also counted in :attr:`failed`.
    poisoned: List[str] = field(default_factory=list)
    #: Fingerprints healed from this worker's own store (crash between
    #: append and done marker) without re-execution.
    healed: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def n_executed(self) -> int:
        return len(self.executed)


def run_worker(
    queue: Union[str, Path, WorkQueue],
    *,
    worker_id: Optional[str] = None,
    store_path: Optional[Union[str, Path]] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    max_runs: Optional[int] = None,
    max_attempts: int = 1,
    checkpoint_seconds: float = DEFAULT_CHECKPOINT_SECONDS,
    run_timeout: Optional[float] = None,
    wait: bool = True,
    execute: Callable[..., Tuple[CampaignResult, float]] = execute_run,
    on_progress: Optional[Callable[[str, QueueEntry], None]] = None,
) -> WorkerOutcome:
    """Drain runs from ``queue`` until the sweep completes (or ``max_runs``).

    Parameters
    ----------
    queue:
        The queue directory (or a :class:`WorkQueue` handle on it).
    worker_id:
        Lease-owner name and store-file stem; defaults to
        :func:`default_worker_id`.  Two concurrent workers must not share an
        id (they would share a store file).
    store_path:
        Where this worker streams finished runs; defaults to
        ``<queue>/stores/<worker_id>.jsonl``.  A path outside the queue
        directory must be merged into ``finalize`` manually.
    lease_seconds:
        Heartbeat lease: a claim not refreshed for this long is stealable.
        Must comfortably exceed the heartbeat interval (``lease / 4``) plus
        worst-case scheduling jitter; it need *not* exceed run duration —
        the heartbeat thread keeps live claims fresh however long runs take.
    poll_seconds:
        Idle sleep between manifest passes when nothing was claimable.
    max_runs:
        Stop after executing this many runs (testing/draining aid).
    max_attempts:
        Execution-failure budget per run.  ``1`` (default) keeps the
        original fail-fast contract: the claim is released and the worker
        raises.  ``N > 1`` retries the run in place — resuming from its own
        checkpoints — and, once the budget is spent, publishes a ``failed/``
        marker and continues draining; the attempt count is carried in the
        claim file so it survives steals.
    checkpoint_seconds:
        Minimum wall-clock spacing between checkpoint saves of one run
        (``0`` = every cycle boundary).  The spacing counts from the run's
        latest restore point: the previous save, or the checkpoint the
        attempt resumed from, so a resumed attempt does not rewrite the line
        it just read.  The default keeps per-cycle checkpointing for
        realistic cycle times while bounding the serialisation overhead of
        very fast simulated runs.
    run_timeout:
        Per-run wall-clock watchdog (seconds).  An attempt still executing
        after this long is *abandoned*: its claim is released so a peer can
        take over immediately (instead of waiting out the lease on a hung
        worker), the zombie attempt is fenced off from the store and the
        checkpoint stream, and the timeout counts as an execution failure
        against ``max_attempts`` (reason ``timeout`` when the budget dies).
        ``None`` (default) disables the watchdog.
    wait:
        When False, return as soon as a full pass finds nothing claimable
        instead of polling until every run is done.
    execute:
        Run executor (injectable for tests); called as
        ``execute(spec, resume_state=..., on_cycle=...)`` and defaults to
        :func:`repro.experiments.suite.execute_run`.  The drain runs inside
        :func:`~repro.experiments.spec.shared_target_builds` (attempts under
        ``run_timeout`` included), so each distinct target set is built once
        per ``run_worker`` call and its runs share the targets read-only.
    on_progress:
        Optional callback ``(event, entry)`` with events ``"claim"``,
        ``"steal"``, ``"resume"``, ``"retry"``, ``"done"``, ``"failed"``,
        ``"poison"``, ``"heal"`` — the CLI's log line hook.
    """
    queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
    worker = validate_worker_id(worker_id or default_worker_id())
    if lease_seconds <= 0 or poll_seconds <= 0:
        raise OrchestrationError("lease_seconds and poll_seconds must be > 0")
    if max_attempts < 1:
        raise OrchestrationError("max_attempts must be >= 1")
    if checkpoint_seconds < 0:
        raise OrchestrationError("checkpoint_seconds must be >= 0")
    if run_timeout is not None and run_timeout <= 0:
        raise OrchestrationError("run_timeout must be > 0 (or None)")
    entries = queue.entries()
    store = RunStore(
        queue.worker_store_path(worker) if store_path is None else store_path
    )
    checkpoints = CheckpointStore(queue.checkpoints_dir)
    outcome = WorkerOutcome(worker_id=worker, store_path=store.path)
    start = time.perf_counter()

    def notify(event: str, entry: QueueEntry) -> None:
        telemetry.event(
            f"worker.{event}",
            run=entry.spec.run_id,
            fingerprint=entry.fingerprint,
        )
        if on_progress is not None:
            on_progress(event, entry)

    with telemetry.worker_scope(worker):
        telemetry.event(
            "worker.start",
            queue=str(queue.path),
            lease_seconds=lease_seconds,
            n_runs=len(entries),
        )
        # Resource gauges (RSS/CPU) stream from a best-effort daemon thread
        # for the drain's duration; a disabled writer means no sampler at all.
        sampler = start_resource_sampler(worker)
        try:
            with shared_target_builds():
                _drain(
                    queue, entries, worker, store, checkpoints, outcome, notify,
                    lease_seconds=lease_seconds, poll_seconds=poll_seconds,
                    max_runs=max_runs, max_attempts=max_attempts,
                    checkpoint_seconds=checkpoint_seconds, run_timeout=run_timeout,
                    wait=wait, execute=execute,
                )
        finally:
            if sampler is not None:
                sampler.stop()
        outcome.wall_seconds = time.perf_counter() - start
        telemetry.event(
            "worker.exit",
            executed=outcome.n_executed,
            stolen=len(outcome.stolen),
            failed=len(outcome.failed),
            healed=len(outcome.healed),
            wall_seconds=outcome.wall_seconds,
        )
    return outcome


def _drain(
    queue: WorkQueue,
    entries: List[QueueEntry],
    worker: str,
    store: RunStore,
    checkpoints: CheckpointStore,
    outcome: WorkerOutcome,
    notify: Callable[[str, QueueEntry], None],
    *,
    lease_seconds: float,
    poll_seconds: float,
    max_runs: Optional[int],
    max_attempts: int,
    checkpoint_seconds: float,
    run_timeout: Optional[float],
    wait: bool,
    execute: Callable[..., Tuple[CampaignResult, float]],
) -> None:
    """The claim/steal/execute passes of :func:`run_worker` (its whole body)."""
    while True:
        claimed_any = False
        pending = 0
        # Checkpoints are transient: sweep up files orphaned by a crash in
        # the done-marker window (one readdir per pass, targeted unlinks).
        leftover_checkpoints = set(checkpoints.fingerprints())
        for entry in entries:
            if max_runs is not None and outcome.n_executed >= max_runs:
                break
            if queue.is_done(entry.fingerprint):
                if entry.fingerprint in leftover_checkpoints:
                    checkpoints.discard(entry.fingerprint)
                continue
            if queue.is_failed(entry.fingerprint):
                continue
            if entry.fingerprint in store:
                # Our own earlier life appended this record but crashed
                # before publishing the marker: publish it now, don't re-run.
                stored = store.get(entry.fingerprint)
                call_with_retries(
                    lambda: queue.mark_done(
                        entry.fingerprint,
                        worker_id=worker,
                        run_id=entry.spec.run_id,
                        wall_seconds=stored.wall_seconds,
                    ),
                    site="queue.mark_done",
                )
                checkpoints.discard(entry.fingerprint)
                outcome.healed.append(entry.fingerprint)
                notify("heal", entry)
                continue
            pending += 1
            claim = queue.claim_path(entry.fingerprint)
            try:
                prior = read_lease(claim)
                if try_claim(claim, worker):
                    stolen = False
                    attempt = 1
                    crashes = 0
                elif try_steal(claim, worker, lease_seconds):
                    stolen = True
                    # Inherit the victim's position in the retry budget (torn
                    # or vanished claims read as attempt 1); the steal itself
                    # recorded one more crash incarnation in the claim.
                    attempt = prior.attempt if prior is not None else 1
                    crashes = (prior.crashes if prior is not None else 0) + 1
                else:
                    continue  # held by a live peer
            except OSError:
                # A transient filesystem refusal while *probing* a claim must
                # not kill the worker — skip the entry this pass; the next
                # pass (or a peer) retries.
                continue
            claimed_any = True
            if stolen and max_attempts > 1 and crashes >= max_attempts:
                # Poison quarantine: every incarnation that executed this run
                # died (or stalled past its lease) without a *caught* failure
                # — a run that SIGKILLs its workers would otherwise be
                # re-stolen forever.  Only an explicit retry budget opts in:
                # the default budget of 1 keeps unlimited crash stealing (the
                # original recovery contract, where a single dead worker must
                # not condemn its run).
                call_with_retries(
                    lambda: queue.mark_failed(
                        entry.fingerprint,
                        worker_id=worker,
                        run_id=entry.spec.run_id,
                        error=(
                            f"poison: {crashes} worker incarnation(s) crashed "
                            "or stalled executing this run"
                        ),
                        attempts=attempt,
                        reason="poison",
                    ),
                    site="queue.mark_failed",
                )
                release_claim(claim, worker)
                outcome.failed.append(entry.spec.run_id)
                outcome.poisoned.append(entry.spec.run_id)
                notify("poison", entry)
                continue
            notify("steal" if stolen else "claim", entry)
            if _execute_with_budget(
                queue, entry, claim, worker, attempt, crashes, max_attempts,
                lease_seconds, checkpoint_seconds, run_timeout, execute,
                store, checkpoints, outcome, notify,
            ):
                outcome.executed.append(entry.spec.run_id)
                if stolen:
                    outcome.stolen.append(entry.spec.run_id)
                notify("done", entry)
        if max_runs is not None and outcome.n_executed >= max_runs:
            break
        if pending == 0:
            break  # every run has a done/failed marker (or was healed above)
        if not claimed_any:
            if not wait:
                break  # live peers hold everything that's left
            time.sleep(poll_seconds)


def _load_resume_state(
    checkpoints: CheckpointStore, entry: QueueEntry, claim: Path, worker: str
) -> Optional[CampaignState]:
    """The newest restorable checkpoint for ``entry``, or ``None``.

    An unusable checkpoint (an unknown schema version, a state that does not
    decode, or a state of another protocol or seed than the run's) must not
    be silently ignored — that would quietly restart a run a newer build
    could have resumed — so it surfaces as a hard error after releasing the
    claim (only while the claim still names ``worker``: a peer's is left
    alone).  A retry would read the same line, so no attempt is spent on it.
    """
    spec = entry.spec
    try:
        state = checkpoints.latest_restorable(entry.fingerprint)
        if state is not None and (state.protocol, state.seed) != (spec.protocol, spec.seed):
            raise StoreError(
                f"its state is for protocol {state.protocol!r} seed "
                f"{state.seed}, the run is {spec.protocol!r} seed {spec.seed}"
            )
    except StoreError as error:
        release_claim(claim, worker)
        raise OrchestrationError(
            f"run {spec.run_id!r} has an unusable checkpoint: {error}"
        ) from error
    return state


def _run_attempt(
    execute: Callable[..., Tuple[CampaignResult, float]],
    entry: QueueEntry,
    resume: Optional[CampaignState],
    on_cycle: Callable[[CampaignState], None],
    run_timeout: Optional[float],
) -> Tuple[CampaignResult, float]:
    """One execution attempt, optionally under the wall-clock watchdog.

    With a timeout, the attempt runs in a daemon thread the caller joins
    with a deadline.  On expiry the thread is *abandoned*, not killed
    (Python cannot kill threads): an ``abandoned`` flag is raised and the
    zombie's next cycle boundary turns into :class:`_Abandoned`, fencing it
    off from checkpoints — and, because store appends and markers happen in
    the caller's thread only after a successful join, from the store too.
    """
    if run_timeout is None:
        return execute(entry.spec, resume_state=resume, on_cycle=on_cycle)

    abandoned = threading.Event()
    box: dict = {}

    def guarded_on_cycle(state: CampaignState) -> None:
        if abandoned.is_set():
            raise _Abandoned()
        on_cycle(state)

    def target() -> None:
        try:
            box["result"] = execute(
                entry.spec, resume_state=resume, on_cycle=guarded_on_cycle
            )
        except _Abandoned:
            pass  # the fenced zombie winding down; nobody is listening
        except BaseException as error:  # noqa: BLE001 - re-raised by caller
            box["error"] = error

    # The copied context carries the drain's shared target builds along.
    thread = threading.Thread(
        target=contextvars.copy_context().run, args=(target,), daemon=True
    )
    thread.start()
    thread.join(run_timeout)
    if thread.is_alive():
        abandoned.set()
        raise RunTimeout(
            f"run {entry.spec.run_id!r} exceeded the {run_timeout:g}s "
            "wall-clock watchdog"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def _execute_with_budget(
    queue: WorkQueue,
    entry: QueueEntry,
    claim: Path,
    worker: str,
    attempt: int,
    crashes: int,
    max_attempts: int,
    lease_seconds: float,
    checkpoint_seconds: float,
    run_timeout: Optional[float],
    execute: Callable[..., Tuple[CampaignResult, float]],
    store: RunStore,
    checkpoints: CheckpointStore,
    outcome: WorkerOutcome,
    notify: Callable[[str, QueueEntry], None],
) -> bool:
    """Run one claimed entry to completion, retrying within the budget.

    Returns True when the run finished (record stored, marker published);
    False when the retry budget was spent and a failed marker was published.
    A failure with the default budget of 1 re-raises (original fail-fast).
    """

    last_save = float("-inf")
    heartbeat: Optional[Heartbeat] = None

    def on_cycle(state: CampaignState) -> None:
        nonlocal last_save
        # A dead heartbeat means the lease is going stale under us: abort at
        # the cycle boundary, before a peer steals the claim and doubles the
        # remaining cycles — the checkpoint just saved makes the abort cheap.
        # A live one carries this state's progress on its next beat.
        if heartbeat is not None:
            heartbeat.check()
            heartbeat.report_progress(state.cycle, state.cycles_total)
        if not state.restorable:
            return  # a progress report: nothing a resume could use
        now = time.monotonic()
        if now - last_save < checkpoint_seconds:
            return
        try:
            # The save encodes the state, so the span times the encoding too.
            with telemetry.span(
                "worker.checkpoint", run=entry.spec.run_id, cycle=state.cycle,
                worker=worker,
            ):
                saved = call_with_retries(
                    lambda: checkpoints.save(
                        entry.fingerprint, state,
                        run_id=entry.spec.run_id, worker=worker,
                    ),
                    site="checkpoint.save",
                )
            try:
                metrics.gauge(
                    "checkpoint.bytes", saved.stat().st_size,
                    run=entry.spec.run_id, cycle=state.cycle, worker=worker,
                )
            except OSError:
                pass  # payload-size gauge is observation only
        except OSError:
            # Checkpoints accelerate recovery, they do not gate correctness:
            # a save that fails persistently (queue-FS outage, ENOSPC) must
            # not abort — let alone permanently fail — a healthy run.  Skip
            # this cycle's checkpoint and keep executing; the next save
            # starts a fresh retry budget.
            return
        last_save = now

    while True:
        resume = _load_resume_state(checkpoints, entry, claim, worker)
        heartbeat = Heartbeat(
            claim, worker, lease_seconds, attempt=attempt, crashes=crashes
        )
        if resume is not None:
            outcome.resumed.append((entry.spec.run_id, resume.cycle))
            notify("resume", entry)
            # A stolen run shows its position from the first beat on.
            heartbeat.report_progress(resume.cycle, resume.cycles_total)
            # The line just read is the run's latest restore point: the
            # spacing counts from it, as from a save.
            last_save = time.monotonic()
        executed = False
        try:
            with telemetry.span(
                "worker.run",
                run=entry.spec.run_id,
                fingerprint=entry.fingerprint,
                attempt=attempt,
                resumed_cycle=None if resume is None else resume.cycle,
            ):
                with heartbeat:
                    with telemetry.span(
                        "worker.execute", run=entry.spec.run_id
                    ):
                        result, seconds = _run_attempt(
                            execute, entry, resume, on_cycle, run_timeout
                        )
                executed = True
                # Store/marker failures (full disk, queue-FS hiccup) are
                # retried with backoff; if they persist the claim is released
                # like an execution failure, so a peer retries immediately
                # instead of waiting out the lease.
                record = SuiteRunRecord(
                    spec=entry.spec, result=result, wall_seconds=seconds
                )
                with telemetry.span("worker.publish", run=entry.spec.run_id):
                    call_with_retries(
                        lambda: store.append(
                            record, fingerprint=entry.fingerprint
                        ),
                        site="store.append",
                    )
                    call_with_retries(
                        lambda: queue.mark_done(
                            entry.fingerprint,
                            worker_id=worker,
                            run_id=entry.spec.run_id,
                            wall_seconds=seconds,
                        ),
                        site="queue.mark_done",
                    )
                checkpoints.discard(entry.fingerprint)
            return True
        except Exception as error:
            heartbeat = None
            if isinstance(error, StoreError) and resume is not None and not executed:
                # The checkpoint's payload does not restore: every retry would
                # resume from it and fail the same way.  Refuse it as
                # _load_resume_state refuses a state that does not decode.
                release_claim(claim, worker)
                raise OrchestrationError(
                    f"run {entry.spec.run_id!r} has an unusable checkpoint: {error}"
                ) from error
            if attempt < max_attempts:
                attempt += 1
                refresh_lease(claim, worker, time.time(), attempt, crashes)
                notify("retry", entry)
                continue
            if max_attempts == 1:
                # The original contract: release and fail fast.
                release_claim(claim, worker)
                raise OrchestrationError(
                    f"worker {worker}: run {entry.spec.run_id!r} failed: {error}"
                ) from error
            # Budget spent: terminate the run for drain purposes and move
            # on.  The checkpoints are kept — after the cause is fixed,
            # deleting the failed marker resumes at the last good cycle.
            call_with_retries(
                lambda: queue.mark_failed(
                    entry.fingerprint,
                    worker_id=worker,
                    run_id=entry.spec.run_id,
                    error=f"{type(error).__name__}: {error}",
                    attempts=attempt,
                    reason=(
                        "timeout" if isinstance(error, RunTimeout) else "error"
                    ),
                ),
                site="queue.mark_failed",
            )
            release_claim(claim, worker)
            outcome.failed.append(entry.spec.run_id)
            notify("failed", entry)
            return False
