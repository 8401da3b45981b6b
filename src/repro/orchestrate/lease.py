"""Atomic claim files and heartbeat leases.

A claim file is the queue's mutual-exclusion primitive.  Its lifecycle:

* **first claim** — ``os.open(path, O_CREAT | O_EXCL)``: exactly one worker
  wins the create; every other contender gets ``FileExistsError`` and moves
  on.  This is the only coordination step that must be race-free, and the
  kernel guarantees it.
* **heartbeat** — while executing, the owner periodically rewrites the claim
  (temp file + ``os.replace``) with a fresh ``heartbeat_at``, extending the
  lease.
* **steal** — any worker that observes ``now - heartbeat_at > lease_seconds``
  may take the claim over by renaming its own claim content onto the path.
  Two simultaneous stealers cannot corrupt anything: renames are atomic, the
  last writer owns the file, and if both proceed to execute the run anyway
  the duplicate is harmless — seeded runs are deterministic and the store
  merge dedups by fingerprint.  Stealing trades a little wasted compute for
  never losing a run to a dead worker.

A claim file that exists but does not parse (a crash between the ``O_EXCL``
create and the content write, or a torn write on a non-atomic network
filesystem) is *not* trusted and *not* fatal: its mtime stands in for the
heartbeat, so a torn claim is stealable exactly when a healthy one would be.

Besides ``attempt`` (the retry budget's position, see the worker), a claim
carries ``crashes``: how many times an incarnation of this run's claim has
been *stolen from an expired lease* — i.e. how often a worker executing this
run died or stalled without releasing.  Stealing increments it; the worker
uses it to quarantine poison runs (a run that keeps killing its workers must
not be re-stolen forever).

A claim also carries the run's progress, ``cycle`` and ``cycles_total``:
the heartbeat writes the pair its worker last handed it, so ``status``
reads a running run's position from the lease it already reads, at most
one beat (``lease / 4``) old.  A fresh or stolen claim, and a torn one,
has no progress until the owner's first beat.

Every write seam here is a named failpoint (:mod:`repro.faults`):
``lease.try_claim``, ``lease.try_steal``, ``lease.refresh`` and the
timestamp source ``lease.clock`` (which a ``clock_skew`` fault offsets — the
shared-filesystem failure where node clocks disagree and lease ages lie).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.faults import registry as faults
from repro.orchestrate.queue import atomic_write_json
from repro.telemetry import api as telemetry
from repro.utils.retrying import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retries

__all__ = [
    "ClaimLease",
    "Heartbeat",
    "HeartbeatError",
    "read_lease",
    "refresh_lease",
    "release_claim",
    "try_claim",
    "try_steal",
]


class HeartbeatError(OSError):
    """A heartbeat thread could not keep its lease fresh (retries exhausted)."""


@dataclass(frozen=True)
class ClaimLease:
    """The observable state of one claim file."""

    worker: str
    claimed_at: float
    heartbeat_at: float
    #: Which execution attempt of the run this claim covers (1-based).  The
    #: count lives in the claim file so it survives work stealing: a worker
    #: that steals a crashed peer's claim inherits where the retry budget
    #: stood.  Pre-retry-budget claims (and torn claims) read as attempt 1.
    attempt: int = 1
    #: How many times this run's claim has been stolen from an expired lease
    #: — a count of worker incarnations that died (or stalled past the
    #: lease) while holding it.  Feeds poison-run quarantine.
    crashes: int = 0
    #: The run's completed cycles as of the owner's last heartbeat; ``None``
    #: until the owner reports progress.
    cycle: Optional[int] = None
    #: The run's known total cycles, when its protocol predicts one.
    cycles_total: Optional[int] = None
    #: True when the file's JSON was unreadable and mtime stood in for the
    #: heartbeat (the claim still gates execution, it is just not trusted
    #: beyond its timestamp).
    torn: bool = False

    def age(self, now: Optional[float] = None) -> float:
        return (time.time() if now is None else now) - self.heartbeat_at

    def expired(self, lease_seconds: float, now: Optional[float] = None) -> bool:
        return self.age(now) > lease_seconds


def _clock() -> float:
    """The lease timestamp source; a ``clock_skew`` fault offsets it.

    Models nodes whose clocks disagree while sharing one filesystem: a
    skewed worker writes heartbeats from the past (its claims look stale and
    get stolen under it — benign double execution) or the future (its stale
    claims look fresh for longer — recovery is delayed, never lost).
    """
    now = time.time()
    event = faults.failpoint("lease.clock")
    if event is not None and event.kind == "clock_skew":
        now += event.skew
    return now


def _lease_payload(
    worker: str,
    claimed_at: float,
    attempt: int = 1,
    crashes: int = 0,
    cycle: Optional[int] = None,
    cycles_total: Optional[int] = None,
) -> dict:
    return {
        "worker": worker,
        "claimed_at": claimed_at,
        "heartbeat_at": _clock(),
        "attempt": attempt,
        "crashes": crashes,
        "cycle": cycle,
        "cycles_total": cycles_total,
    }


def _optional_int(value: object) -> Optional[int]:
    return None if value is None else int(value)


def read_lease(path: Path) -> Optional[ClaimLease]:
    """The lease recorded at ``path``; ``None`` when no claim file exists."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return ClaimLease(
            worker=str(payload["worker"]),
            claimed_at=float(payload["claimed_at"]),
            heartbeat_at=float(payload["heartbeat_at"]),
            attempt=int(payload.get("attempt", 1)),
            crashes=int(payload.get("crashes", 0)),
            cycle=_optional_int(payload.get("cycle")),
            cycles_total=_optional_int(payload.get("cycles_total")),
        )
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError):
        # Torn/garbled claim: fall back to the file's mtime so it expires on
        # the same schedule as a healthy claim whose owner stopped beating.
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None  # vanished between read and stat: no claim
        return ClaimLease(
            worker="<unreadable>", claimed_at=mtime, heartbeat_at=mtime, torn=True
        )


def try_claim(path: Path, worker: str) -> bool:
    """Attempt the first claim of ``path``; True iff this worker won it.

    A first claim is attempt 1 with no crashes.  The ``O_CREAT | O_EXCL``
    open is the atomic winner-takes-all step; the content write that follows
    is best-effort (a crash inside it leaves a torn claim, which
    :func:`read_lease` degrades to an mtime lease).
    """
    event = faults.failpoint("lease.try_claim")
    if event is not None and event.kind == "io_error":
        faults.raise_error(event)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return False
    try:
        payload = _lease_payload(worker, claimed_at=time.time())
        content = (json.dumps(payload, sort_keys=True) + "\n").encode()
        if event is not None and event.kind == "torn_write":
            # Crash window between O_EXCL create and the content write: a
            # half-written claim that read_lease degrades to an mtime lease.
            os.write(descriptor, content[: max(1, len(content) // 2)])
            os.close(descriptor)
            faults.raise_error(event)
        os.write(descriptor, content)
    finally:
        try:
            os.close(descriptor)
        except OSError:  # already closed on the torn path
            pass
    if event is not None and event.kind == "crash_after_write":
        faults.crash(event)
    return True


def try_steal(path: Path, worker: str, lease_seconds: float) -> bool:
    """Take over an expired claim; True iff this worker now holds the lease.

    Only steals when the current lease (or the mtime of a torn claim) is
    older than ``lease_seconds``.  The victim's attempt count is inherited
    (a steal is not a fresh execution attempt — caught execution *failures*
    advance the budget, crashes and stalls do not, so a slow-but-retryable
    run cannot be starved by lease churn), while the ``crashes`` count is
    *incremented*: an expired lease means an incarnation died or stalled
    holding this run.  After the rename the claim is re-read: if a racing
    stealer renamed over us in the window, they own it and we report failure
    — a best-effort tiebreak; the residual double-own window is benign (see
    the module docstring).
    """
    event = faults.failpoint("lease.try_steal")
    if event is not None and event.kind == "io_error":
        faults.raise_error(event)
    lease = read_lease(path)
    if lease is None:
        # Claim vanished (owner released it); take the fast path.
        return try_claim(path, worker)
    if not lease.expired(lease_seconds):
        return False
    atomic_write_json(
        path,
        _lease_payload(
            worker,
            claimed_at=time.time(),
            attempt=lease.attempt,
            crashes=lease.crashes + 1,
        ),
    )
    after = read_lease(path)
    won = after is not None and after.worker == worker
    if won:
        telemetry.event(
            "lease.steal",
            worker=worker,
            claim=path.stem,
            victim=lease.worker,
            lease_age=lease.age(),
            crashes=lease.crashes + 1,
        )
    return won


def refresh_lease(
    path: Path,
    worker: str,
    claimed_at: float,
    attempt: int = 1,
    crashes: int = 0,
    cycle: Optional[int] = None,
    cycles_total: Optional[int] = None,
) -> None:
    """Rewrite the claim with a fresh heartbeat and progress (atomic rename)."""
    atomic_write_json(
        path,
        _lease_payload(worker, claimed_at, attempt, crashes, cycle, cycles_total),
        failpoint_site="lease.refresh",
    )


def release_claim(path: Path, worker: Optional[str] = None) -> bool:
    """Drop a claim so other workers can retry immediately (e.g. on failure).

    With ``worker`` given, the claim is released only while it still names
    this worker: if a stealer took the lease in the meantime (our heartbeat
    stalled past the lease mid-run), unlinking would silently destroy *their*
    live claim — instead the release is declined.  Returns whether this
    process won the release (the file was ours — or unowned — and is now
    gone); a claim that vanished between check and unlink (a concurrent
    release or steal-then-finish) is not an error, just a lost race.
    """
    if worker is not None:
        lease = read_lease(path)
        if lease is None:
            return False  # nothing to release: someone got there first
        if not lease.torn and lease.worker != worker:
            return False  # stolen from under us: the claim is theirs now
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    return True


class Heartbeat:
    """Background thread refreshing one claim's lease while a run executes.

    Beats every ``lease_seconds / 4`` (floored at 50 ms) so a healthy worker
    misses the lease deadline only if it stalls for most of the lease — the
    failure the steal path exists for.  Each beat also writes the run's
    progress as last handed to :meth:`report_progress`, so the claim shows
    the cycle at most one beat late without a file write per cycle.

    A transient refresh failure (shared-filesystem hiccup, injected
    ``io_error``) is retried with backoff inside the beat; if the retries
    are exhausted the thread stops beating **loudly**: the failure is
    recorded and re-raised — as :class:`HeartbeatError` — by the next
    :meth:`check` call or at ``__exit__``.  The old behaviour (thread dies
    silently, the claim goes stale under a live worker, a peer steals it and
    the run executes twice) is exactly the kind of quiet rot the chaos soak
    exists to flush out.
    """

    def __init__(
        self,
        path: Path,
        worker: str,
        lease_seconds: float,
        attempt: int = 1,
        crashes: int = 0,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self._path = path
        self._worker = worker
        self._claimed_at = time.time()
        self._attempt = attempt
        self._crashes = crashes
        self._progress: Tuple[Optional[int], Optional[int]] = (None, None)
        self._retry_policy = retry_policy
        self._interval = max(0.05, lease_seconds / 4.0)
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def report_progress(self, cycle: int, cycles_total: Optional[int]) -> None:
        """Hand the run's progress to the next beat (any thread may call it)."""
        self._progress = (cycle, cycles_total)

    def _refresh(self) -> None:
        refresh_lease(
            self._path, self._worker, self._claimed_at, self._attempt,
            self._crashes, *self._progress,
        )

    def _beat(self) -> None:
        # Runs in its own thread: contextvars do not cross the thread start,
        # so the worker label is passed explicitly on every telemetry event.
        while not self._stop.wait(self._interval):
            try:
                call_with_retries(
                    self._refresh, policy=self._retry_policy,
                    site="lease.refresh",
                )
            except BaseException as error:  # noqa: BLE001 - surfaced at check()
                self._error = error
                telemetry.event(
                    "lease.heartbeat_failed",
                    worker=self._worker,
                    claim=self._path.stem,
                    error=f"{type(error).__name__}: {error}",
                )
                return
            telemetry.event(
                "lease.heartbeat", worker=self._worker, claim=self._path.stem
            )

    @property
    def failed(self) -> bool:
        """Whether the beat thread has died (the lease is going stale)."""
        return self._error is not None

    def check(self) -> None:
        """Raise :class:`HeartbeatError` if the beat thread has died.

        Call sites that outlive many beats (the worker's per-cycle hook)
        poll this so a stale-lease-in-the-making aborts the run *before* a
        peer steals it and doubles the work.
        """
        if self._error is not None:
            raise HeartbeatError(
                f"heartbeat for {self._path.name} (worker {self._worker}) "
                f"stopped: {self._error}"
            ) from self._error

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        # Surface a dead heartbeat even when the run body succeeded — the
        # lease may have been stolen and the result double-executed; the
        # caller must know.  Never mask an exception already propagating.
        if exc_type is None:
            self.check()
