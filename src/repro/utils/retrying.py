"""Bounded retries with exponential backoff and jitter for transient I/O.

Shared-filesystem hiccups — a transient ``EIO`` from a flaky NFS server, a
momentary ``ENOSPC`` while a quota catches up — are the faults a campaign
should *absorb*, not convert into a spent retry attempt or a silently dead
heartbeat thread.  The store append, checkpoint save and lease refresh paths
all route their writes through :func:`call_with_retries`, so the transient
class heals in place while genuine failures still surface after a bounded
number of attempts.

Only :class:`OSError` (and subclasses) is retried: anything else
— a programming error, a corrupt-store :class:`~repro.exceptions.StoreError`
— is not transient and propagates immediately.  Jitter decorrelates the
retry storms of many workers hammering one shared filesystem; it affects
*when* a retry lands, never *what* is written, so the determinism contracts
are untouched.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.exceptions import ConfigurationError
from repro.telemetry import api as telemetry

__all__ = ["DEFAULT_RETRY_POLICY", "RetryPolicy", "call_with_retries"]

T = TypeVar("T")

#: Module-level jitter source: timing-only randomness (never science RNG).
_jitter_rng = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to back off between attempts."""

    #: Total attempts, including the first (``1`` disables retrying).
    attempts: int = 3
    #: Backoff before the first retry (seconds).
    base_delay: float = 0.02
    #: Exponential growth factor per further retry.
    multiplier: float = 2.0
    #: Backoff ceiling (seconds), applied before jitter.
    max_delay: float = 1.0
    #: Uniform jitter fraction: the actual sleep is ``delay * (1 + U[0, jitter])``.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ConfigurationError("retry delays and jitter must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )

    def backoff(self, retry_index: int, *, rng: Optional[random.Random] = None) -> float:
        """Sleep before the ``retry_index``-th retry (0-based), jittered."""
        delay = min(
            self.base_delay * (self.multiplier ** retry_index), self.max_delay
        )
        if self.jitter > 0.0:
            delay *= 1.0 + (rng or _jitter_rng).random() * self.jitter
        return delay


#: The stack-wide default: 3 attempts over ~60 ms of backoff — long enough to
#: outlive a momentary filesystem refusal, short enough that a heartbeat
#: retrying under it cannot blow a sanely-configured lease.
DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retries(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    sleep: Callable[[float], None] = time.sleep,
    site: Optional[str] = None,
) -> T:
    """Call ``fn`` until it returns, retrying :class:`OSError` with backoff.

    The final failure is re-raised unchanged.  ``sleep`` is injectable for
    deterministic tests.  ``site`` names the seam for telemetry: each
    suppressed failure emits a ``retry`` event, so backoff churn shows up
    in fleet timelines instead of vanishing silently.
    """
    retries = policy.attempts - 1
    for retry_index in range(retries):
        try:
            return fn()
        except OSError as error:
            if site is not None:
                telemetry.event(
                    "retry",
                    site=site,
                    retry_index=retry_index,
                    error=f"{type(error).__name__}: {error}",
                )
            sleep(policy.backoff(retry_index))
    return fn()
