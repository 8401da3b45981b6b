"""Queue and lease primitives: atomic claims, expiry, stealing, torn files."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exceptions import OrchestrationError
from repro.orchestrate import (
    WorkQueue,
    read_lease,
    release_claim,
    try_claim,
    try_steal,
    validate_worker_id,
)
from repro.orchestrate.lease import Heartbeat, refresh_lease
from repro.orchestrate.queue import atomic_write_json
from repro.experiments import SweepSpec, TargetSpec
from repro.store import run_fingerprint

SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture()
def queue(tmp_path):
    return WorkQueue.create(tmp_path / "queue", SWEEP)


class TestManifest:
    def test_entries_round_trip_the_expanded_sweep(self, queue):
        entries = queue.entries()
        expanded = SWEEP.expand()
        assert [entry.spec for entry in entries] == expanded
        assert [entry.fingerprint for entry in entries] == [
            run_fingerprint(spec) for spec in expanded
        ]

    def test_reinit_same_sweep_is_idempotent(self, queue):
        again = WorkQueue.create(queue.path, SWEEP)
        assert [e.fingerprint for e in again.entries()] == [
            e.fingerprint for e in queue.entries()
        ]

    def test_reinit_different_sweep_is_rejected(self, queue):
        other = SweepSpec(
            protocols=("im-rp",),
            seeds=(0,),
            targets=TargetSpec(kind="named-pdz", seed=11),
            base={"n_cycles": 1, "n_sequences": 4},
        )
        with pytest.raises(OrchestrationError, match="different sweep"):
            WorkQueue.create(queue.path, other)

    def test_uninitialised_directory_is_a_clear_error(self, tmp_path):
        with pytest.raises(OrchestrationError, match="not an initialised"):
            WorkQueue(tmp_path / "nowhere").entries()

    def test_unknown_manifest_version_rejected(self, queue):
        payload = json.loads(queue.manifest_path.read_text())
        payload["schema_version"] = 99
        queue.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(OrchestrationError, match="schema_version"):
            queue.entries()

    def test_worker_id_validation(self):
        assert validate_worker_id("node-3.local_w0") == "node-3.local_w0"
        with pytest.raises(OrchestrationError, match="worker id"):
            validate_worker_id("bad/worker")
        with pytest.raises(OrchestrationError, match="worker id"):
            validate_worker_id("")


class TestClaims:
    def test_first_claim_wins_and_double_claim_is_rejected(self, queue):
        fingerprint = queue.entries()[0].fingerprint
        path = queue.claim_path(fingerprint)
        assert try_claim(path, "w0") is True
        # The atomic O_EXCL create rejects every later contender.
        assert try_claim(path, "w1") is False
        lease = read_lease(path)
        assert lease is not None and lease.worker == "w0" and not lease.torn

    def test_live_lease_cannot_be_stolen(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        assert try_steal(path, "w1", lease_seconds=60.0) is False
        assert read_lease(path).worker == "w0"

    def test_expired_lease_is_stolen(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        time.sleep(0.05)
        assert try_steal(path, "w1", lease_seconds=0.01) is True
        assert read_lease(path).worker == "w1"

    def test_released_claim_is_reclaimable(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        release_claim(path)
        assert read_lease(path) is None
        assert try_claim(path, "w1") is True
        release_claim(path)
        release_claim(path)  # idempotent

    def test_steal_of_vanished_claim_falls_back_to_claim(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        assert try_steal(path, "w1", lease_seconds=0.01) is True
        assert read_lease(path).worker == "w1"

    def test_heartbeat_keeps_a_lease_alive(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        with Heartbeat(path, "w0", lease_seconds=0.4):
            time.sleep(1.0)
            # Several lease periods passed, but the heartbeat kept it fresh.
            assert try_steal(path, "w1", lease_seconds=0.4) is False
        assert read_lease(path).worker == "w0"

    def test_heartbeat_writes_the_reported_progress(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        assert read_lease(path).cycle is None  # a fresh claim has none
        with Heartbeat(path, "w0", lease_seconds=0.2) as heartbeat:
            heartbeat.report_progress(4, 12)
            reported = read_lease(path)
            deadline = time.time() + 10.0
            while reported.cycle is None and time.time() < deadline:
                time.sleep(0.01)
                reported = read_lease(path)
        assert (reported.cycle, reported.cycles_total) == (4, 12)
        assert reported.worker == "w0"

    def test_steals_write_no_progress(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        stale = time.time() - 3600.0
        atomic_write_json(
            path,
            {
                "worker": "w0", "claimed_at": stale, "heartbeat_at": stale,
                "cycle": 7, "cycles_total": 12,
            },
        )
        assert read_lease(path).cycle == 7
        assert try_steal(path, "w1", lease_seconds=30.0) is True
        stolen = read_lease(path)
        assert stolen.worker == "w1" and stolen.cycle is None
        assert stolen.cycles_total is None

    def test_refresh_extends_the_lease(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        before = read_lease(path)
        time.sleep(0.05)
        refresh_lease(path, "w0", before.claimed_at)
        after = read_lease(path)
        assert after.heartbeat_at > before.heartbeat_at
        assert after.claimed_at == pytest.approx(before.claimed_at)


class TestTornFiles:
    def test_torn_claim_is_not_trusted_but_still_gates(self, queue):
        """Garbage claim content degrades to an mtime lease, not a crash."""
        path = queue.claim_path(queue.entries()[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"worker": "w0", "claimed_')  # torn mid-write
        lease = read_lease(path)
        assert lease is not None and lease.torn
        # Fresh mtime: still within its lease, cannot be stolen.
        assert try_steal(path, "w1", lease_seconds=60.0) is False

    def test_stale_torn_claim_is_reclaimed(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all")
        stale = time.time() - 3600.0
        os.utime(path, (stale, stale))
        assert try_steal(path, "w1", lease_seconds=30.0) is True
        assert read_lease(path).worker == "w1"

    def test_empty_claim_file_handled(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
        lease = read_lease(path)
        assert lease is not None and lease.torn


class TestDoneMarkers:
    def test_mark_done_round_trips(self, queue):
        entry = queue.entries()[0]
        assert not queue.is_done(entry.fingerprint)
        queue.mark_done(
            entry.fingerprint,
            worker_id="w0",
            run_id=entry.spec.run_id,
            wall_seconds=1.25,
        )
        assert queue.is_done(entry.fingerprint)
        record = queue.done_record(entry.fingerprint)
        assert record["worker"] == "w0"
        assert record["run_id"] == entry.spec.run_id
        assert record["wall_seconds"] == 1.25
        assert queue.done_fingerprints() == [entry.fingerprint]


class TestOwnerCheckedRelease:
    """release_claim returns whether *this* process won the release, and
    declines to destroy a claim a stealer now owns."""

    def test_owner_release_wins(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        assert release_claim(path, "w0") is True
        assert read_lease(path) is None

    def test_release_declines_a_stolen_claim(self, queue):
        """Our heartbeat stalled, a peer stole the lease: unlinking now
        would destroy *their* live claim."""
        path = queue.claim_path(queue.entries()[0].fingerprint)
        stale = time.time() - 3600.0
        atomic_write_json(
            path,
            {"worker": "w0", "claimed_at": stale, "heartbeat_at": stale},
        )
        assert try_steal(path, "thief", lease_seconds=30.0) is True
        assert release_claim(path, "w0") is False
        assert read_lease(path).worker == "thief"

    def test_release_of_vanished_claim_is_a_lost_race(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        assert release_claim(path, "w0") is False
        try_claim(path, "w0")
        release_claim(path)
        assert release_claim(path, "w0") is False

    def test_unowned_release_keeps_the_old_contract(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        assert release_claim(path) is True

    def test_torn_claim_is_releasable_by_anyone(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"worker": "w9", "cl')  # torn: owner unknowable
        assert release_claim(path, "w0") is True
        assert read_lease(path) is None


class TestGarbageClaimFiles:
    """read_lease must degrade every unreadable shape to an mtime lease —
    never crash, never trust garbage beyond its timestamp."""

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all",
            '["a", "json", "list"]',
            '"just a string"',
            "42",
            '{"worker": "w0"}',  # structurally incomplete
            '{"worker": "w0", "claimed_at": "yesterday", "heartbeat_at": 1}',
        ],
    )
    def test_garbage_degrades_to_a_torn_mtime_lease(self, queue, content):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        lease = read_lease(path)
        assert lease is not None and lease.torn
        assert lease.worker == "<unreadable>"
        assert lease.attempt == 1 and lease.crashes == 0
        assert lease.cycle is None and lease.cycles_total is None
        # Fresh mtime: not stealable yet; stale mtime: stealable.
        assert not lease.expired(lease_seconds=60.0)

    def test_crash_counter_rides_the_claim_and_steals_increment_it(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        assert try_claim(path, "w0") is True
        lease = read_lease(path)
        assert lease.attempt == 1 and lease.crashes == 0
        stale = time.time() - 3600.0
        atomic_write_json(
            path,
            {
                "worker": "w0", "claimed_at": stale, "heartbeat_at": stale,
                "attempt": 2, "crashes": 1,
            },
        )
        assert try_steal(path, "w1", lease_seconds=30.0) is True
        stolen = read_lease(path)
        # The steal inherits the attempt but records one more dead
        # incarnation.
        assert stolen.attempt == 2 and stolen.crashes == 2

    def test_pre_crash_schema_claims_read_as_zero_crashes(self, queue):
        path = queue.claim_path(queue.entries()[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"worker": "w0", "claimed_at": 1.0, "heartbeat_at": 1.0}
            )
        )
        lease = read_lease(path)
        assert not lease.torn and lease.crashes == 0 and lease.attempt == 1


class TestFailedMarkers:
    def test_mark_failed_round_trips_with_reason(self, queue):
        entry = queue.entries()[0]
        assert not queue.is_failed(entry.fingerprint)
        queue.mark_failed(
            entry.fingerprint,
            worker_id="w0",
            run_id=entry.spec.run_id,
            error="RuntimeError: boom",
            attempts=3,
            reason="poison",
        )
        assert queue.is_failed(entry.fingerprint)
        record = queue.failed_record(entry.fingerprint)
        assert record["worker"] == "w0"
        assert record["run_id"] == entry.spec.run_id
        assert record["error"] == "RuntimeError: boom"
        assert record["attempts"] == 3
        assert record["reason"] == "poison"
        assert record["failed_at"] <= time.time()

    def test_reason_defaults_to_error(self, queue):
        entry = queue.entries()[0]
        queue.mark_failed(
            entry.fingerprint, worker_id="w0", run_id=entry.spec.run_id,
            error="x", attempts=1,
        )
        assert queue.failed_record(entry.fingerprint)["reason"] == "error"

    def test_failed_fingerprints_lists_only_real_markers(self, queue):
        entries = queue.entries()
        for entry in entries[:2]:
            queue.mark_failed(
                entry.fingerprint, worker_id="w0", run_id=entry.spec.run_id,
                error="x", attempts=1,
            )
        # A stranded atomic-write temp must not read as a failed run.
        (queue.failed_dir / ".ghost.json.tmp-1-2").write_text("{}")
        assert queue.failed_fingerprints() == sorted(
            entry.fingerprint for entry in entries[:2]
        )

    def test_missing_and_torn_failed_records_read_as_none(self, queue):
        entry = queue.entries()[0]
        assert queue.failed_record(entry.fingerprint) is None
        queue.failed_dir.mkdir(parents=True, exist_ok=True)
        queue.failed_path(entry.fingerprint).write_text('{"torn')
        assert queue.failed_record(entry.fingerprint) is None


class TestHeartbeatFailureSurfacing:
    """A heartbeat that cannot keep its lease fresh must fail loudly, not
    let the claim rot stale under a live worker."""

    def _refusing_plan(self):
        from repro.faults import FaultPlan

        return FaultPlan(0, rates={"io_error": 1.0})

    def test_exhausted_refreshes_surface_at_exit(self, queue):
        from repro import faults
        from repro.orchestrate import HeartbeatError
        from repro.utils.retrying import RetryPolicy

        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        policy = RetryPolicy(attempts=2, base_delay=0.001, jitter=0.0)
        with faults.injected_plan(self._refusing_plan()):
            with pytest.raises(HeartbeatError, match="stopped"):
                with Heartbeat(
                    path, "w0", lease_seconds=0.2, retry_policy=policy
                ) as heartbeat:
                    deadline = time.time() + 5.0
                    while not heartbeat.failed and time.time() < deadline:
                        time.sleep(0.02)
                    assert heartbeat.failed

    def test_check_raises_before_exit(self, queue):
        from repro import faults
        from repro.orchestrate import HeartbeatError
        from repro.utils.retrying import RetryPolicy

        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        policy = RetryPolicy(attempts=2, base_delay=0.001, jitter=0.0)
        with faults.injected_plan(self._refusing_plan()):
            heartbeat = Heartbeat(
                path, "w0", lease_seconds=0.2, retry_policy=policy
            )
            heartbeat.__enter__()
            try:
                deadline = time.time() + 5.0
                while not heartbeat.failed and time.time() < deadline:
                    time.sleep(0.02)
                with pytest.raises(HeartbeatError, match="w0"):
                    heartbeat.check()
            finally:
                with pytest.raises(HeartbeatError):
                    heartbeat.__exit__(None, None, None)

    def test_transient_refresh_failures_are_absorbed(self, queue):
        """A refresh that fails once then heals never surfaces: the retry
        policy absorbs the transient class in place."""
        from repro import faults
        from repro.faults import FaultPlan, ForcedFault

        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        plan = FaultPlan(
            0, force=[ForcedFault("lease.refresh", 1, "io_error")]
        )
        with faults.injected_plan(plan):
            with Heartbeat(path, "w0", lease_seconds=0.2) as heartbeat:
                time.sleep(0.5)  # several beats, the first one injected
                assert not heartbeat.failed
        assert read_lease(path).worker == "w0"

    def test_run_body_exception_is_not_masked_by_a_dead_heartbeat(self, queue):
        from repro import faults
        from repro.utils.retrying import RetryPolicy

        path = queue.claim_path(queue.entries()[0].fingerprint)
        try_claim(path, "w0")
        policy = RetryPolicy(attempts=2, base_delay=0.001, jitter=0.0)
        with faults.injected_plan(self._refusing_plan()):
            with pytest.raises(RuntimeError, match="the real failure"):
                with Heartbeat(
                    path, "w0", lease_seconds=0.2, retry_policy=policy
                ):
                    time.sleep(0.3)
                    raise RuntimeError("the real failure")
