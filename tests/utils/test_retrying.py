"""Transient-I/O retry helper: backoff shape, retry filtering, exhaustion."""

from __future__ import annotations

import random

import pytest

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.telemetry.writer import read_telemetry_dir
from repro.utils.retrying import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    call_with_retries,
)


class Flaky:
    """Fails ``failures`` times, then succeeds; counts every call."""

    def __init__(self, failures, error=OSError("transient")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestCallWithRetries:
    def test_first_try_success_sleeps_never(self):
        sleeps = []
        assert (
            call_with_retries(Flaky(0), sleep=sleeps.append) == "ok"
        )
        assert sleeps == []

    def test_transient_failures_are_absorbed(self):
        flaky = Flaky(2)
        sleeps = []
        policy = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0)
        assert call_with_retries(flaky, policy=policy, sleep=sleeps.append) == "ok"
        assert flaky.calls == 3
        assert len(sleeps) == 2

    def test_exhaustion_raises_the_last_error(self):
        flaky = Flaky(99)
        policy = RetryPolicy(attempts=3, base_delay=0.001, jitter=0.0)
        with pytest.raises(OSError, match="transient"):
            call_with_retries(flaky, policy=policy, sleep=lambda _s: None)
        assert flaky.calls == 3

    def test_non_retryable_errors_pass_straight_through(self):
        flaky = Flaky(99, error=ValueError("logic bug"))
        with pytest.raises(ValueError):
            call_with_retries(flaky, sleep=lambda _s: None)
        assert flaky.calls == 1  # a logic bug must not be retried

    def test_each_suppressed_failure_emits_a_retry_event(self, tmp_path):
        flaky = Flaky(2)
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            call_with_retries(
                flaky,
                policy=RetryPolicy(attempts=3, base_delay=0.001, jitter=0.0),
                sleep=lambda _s: None,
                site="store.append",
            )
        events = read_telemetry_dir(tmp_path / "telemetry", names={"retry"})
        assert [event["attrs"] for event in events] == [
            {"site": "store.append", "retry_index": 0,
             "error": "OSError: transient"},
            {"site": "store.append", "retry_index": 1,
             "error": "OSError: transient"},
        ]


class TestBackoffShape:
    def test_delays_grow_exponentially_without_jitter(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=10.0,
            jitter=0.0,
        )
        assert [policy.backoff(i) for i in range(4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8]
        )

    def test_delays_are_capped(self):
        policy = RetryPolicy(
            attempts=10, base_delay=1.0, multiplier=10.0, max_delay=3.0,
            jitter=0.0,
        )
        assert policy.backoff(5) == 3.0

    def test_jitter_stays_within_its_fraction(self):
        policy = RetryPolicy(
            attempts=3, base_delay=1.0, multiplier=1.0, jitter=0.25,
        )
        rng = random.Random(0)
        for index in range(50):
            delay = policy.backoff(index % 2, rng=rng)
            assert 0.75 <= delay <= 1.25

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)

    def test_default_policy_is_modest(self):
        """The default must stay cheap: a worst-case exhaustion sleeps well
        under a lease interval, so retries never starve a heartbeat."""
        total = sum(
            DEFAULT_RETRY_POLICY.backoff(i)
            for i in range(DEFAULT_RETRY_POLICY.attempts - 1)
        )
        assert total < 1.0
