"""Worker-loop behaviour: draining, stealing, healing, failure modes, retry
budgets, preemptive checkpoint resume, and the distributed determinism
contract (2-worker finalize == serial suite store, kill-and-steal included)."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.analysis.progress import format_queue_progress
from repro.core.control import ControlProtocol
from repro.core.protocols import CampaignState
from repro.exceptions import OrchestrationError
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.experiments.suite import SuiteRunRecord, execute_run
from repro.orchestrate import (
    WorkQueue,
    finalize_queue,
    queue_progress,
    read_lease,
    run_worker,
    try_claim,
)
from repro.orchestrate import worker as worker_module
from repro.orchestrate.lease import refresh_lease
from repro.orchestrate.queue import atomic_write_json
from repro.store import CheckpointStore, RunStore, prune_store

SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v"),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


class FakeResult:
    """Deterministic stand-in for a CampaignResult (mechanics tests only)."""

    def __init__(self, spec):
        self._payload = {
            "approach": "FAKE",
            "protocol": spec.protocol,
            "seed": spec.seed,
            "run_id": spec.run_id,
        }

    def as_dict(self):
        return self._payload


def fake_execute(calls=None):
    def execute(spec, *, resume_state=None, on_cycle=None):
        if calls is not None:
            calls.append(spec.run_id)
        return FakeResult(spec), 0.01

    return execute


@pytest.fixture()
def queue(tmp_path):
    return WorkQueue.create(tmp_path / "queue", SWEEP)


def _dead_claim(queue, fingerprint, *, worker="dead-worker", age=3600.0):
    """A claim whose owner stopped heartbeating ``age`` seconds ago."""
    stale = time.time() - age
    atomic_write_json(
        queue.claim_path(fingerprint),
        {"worker": worker, "claimed_at": stale, "heartbeat_at": stale},
    )


def _plant_checkpoint(queue, entry, *, cycle=5, **line_overrides):
    """A checkpoint for ``entry`` at ``cycle``; ``line_overrides`` replace
    fields of the line (e.g. the ``schema_version`` stamp of another build's
    checkpoint, or a ``state`` that does not decode)."""
    checkpoints = CheckpointStore(queue.checkpoints_dir)
    state = CampaignState(
        protocol=entry.spec.protocol, seed=entry.spec.seed, cycle=cycle,
        cycles_total=12, payload={"x": 1},
    )
    checkpoints.save(
        entry.fingerprint, state, run_id=entry.spec.run_id, worker="old"
    )
    if line_overrides:
        path = checkpoints.path(entry.fingerprint)
        line = json.loads(path.read_text())
        line.update(line_overrides)
        path.write_text(json.dumps(line) + "\n")
    return checkpoints


class TestWorkerLoop:
    def test_single_worker_drains_the_queue(self, queue):
        calls = []
        outcome = run_worker(queue, worker_id="w0", execute=fake_execute(calls))
        run_ids = [entry.spec.run_id for entry in queue.entries()]
        assert outcome.executed == run_ids == calls
        assert outcome.stolen == [] and outcome.healed == []
        store = RunStore(queue.worker_store_path("w0"))
        assert sorted(store.fingerprints()) == sorted(
            entry.fingerprint for entry in queue.entries()
        )
        assert all(queue.is_done(e.fingerprint) for e in queue.entries())

    def test_two_workers_split_without_overlap(self, queue):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(
                    run_worker,
                    queue,
                    worker_id=f"w{i}",
                    execute=fake_execute(),
                    lease_seconds=60.0,
                )
                for i in range(2)
            ]
            outcomes = [future.result() for future in futures]
        executed = outcomes[0].executed + outcomes[1].executed
        # O_EXCL claims + live leases: every run executed exactly once.
        assert sorted(executed) == sorted(
            entry.spec.run_id for entry in queue.entries()
        )

    def test_max_runs_stops_early(self, queue):
        outcome = run_worker(
            queue, worker_id="w0", execute=fake_execute(), max_runs=1
        )
        assert outcome.n_executed == 1
        progress = queue_progress(queue)
        assert progress.n_done == 1 and progress.n_unclaimed == 3

    def test_no_wait_returns_while_peers_hold_claims(self, queue):
        entries = queue.entries()
        for entry in entries[1:]:
            try_claim(queue.claim_path(entry.fingerprint), "live-peer")
        outcome = run_worker(
            queue, worker_id="w0", execute=fake_execute(), wait=False,
            lease_seconds=60.0,
        )
        # Only the unclaimed run was executable; the rest are held live.
        assert outcome.executed == [entries[0].spec.run_id]

    def test_worker_store_path_override(self, queue, tmp_path):
        store_path = tmp_path / "elsewhere" / "mine.jsonl"
        run_worker(
            queue, worker_id="w0", store_path=store_path, execute=fake_execute()
        )
        assert len(RunStore(store_path)) == 4
        assert queue.worker_store_paths() == []


class TestFailureModes:
    def test_stale_lease_is_reclaimed_by_a_live_worker(self, queue):
        """A worker died mid-run: its claim expires and a peer steals it."""
        victim = queue.entries()[0]
        _dead_claim(queue, victim.fingerprint)
        outcome = run_worker(
            queue, worker_id="w1", execute=fake_execute(), lease_seconds=0.5
        )
        assert victim.spec.run_id in outcome.stolen
        assert outcome.n_executed == 4  # nothing lost
        assert all(queue.is_done(e.fingerprint) for e in queue.entries())
        assert read_lease(queue.claim_path(victim.fingerprint)).worker == "w1"

    def test_live_lease_is_respected_until_expiry(self, queue):
        victim = queue.entries()[0]
        _dead_claim(queue, victim.fingerprint, age=0.0)  # fresh heartbeat
        outcome = run_worker(
            queue, worker_id="w1", execute=fake_execute(), lease_seconds=60.0,
            wait=False,
        )
        assert victim.spec.run_id not in outcome.executed
        assert outcome.n_executed == 3

    def test_torn_claim_file_is_ignored_and_reclaimed_when_stale(self, queue):
        victim = queue.entries()[0]
        claim = queue.claim_path(victim.fingerprint)
        claim.parent.mkdir(parents=True, exist_ok=True)
        claim.write_text('{"worker": "w9", "claim')  # torn mid-write
        import os

        stale = time.time() - 3600.0
        os.utime(claim, (stale, stale))
        outcome = run_worker(
            queue, worker_id="w1", execute=fake_execute(), lease_seconds=0.5
        )
        assert victim.spec.run_id in outcome.stolen
        assert outcome.n_executed == 4

    def test_heal_republishes_marker_without_reexecution(self, queue):
        """Crash between store append and done marker: healed, not re-run."""
        entry = queue.entries()[0]
        store = RunStore(queue.worker_store_path("w0"))
        store.append(
            SuiteRunRecord(
                spec=entry.spec, result=FakeResult(entry.spec), wall_seconds=0.5
            ),
            fingerprint=entry.fingerprint,
        )
        assert not queue.is_done(entry.fingerprint)
        calls = []
        outcome = run_worker(queue, worker_id="w0", execute=fake_execute(calls))
        assert outcome.healed == [entry.fingerprint]
        assert entry.spec.run_id not in calls  # not re-executed
        assert queue.is_done(entry.fingerprint)
        assert queue.done_record(entry.fingerprint)["wall_seconds"] == 0.5

    def test_failing_run_releases_the_claim_and_fails_fast(self, queue):
        def exploding(spec, *, resume_state=None, on_cycle=None):
            raise RuntimeError("boom")

        with pytest.raises(OrchestrationError, match="boom"):
            run_worker(queue, worker_id="w0", execute=exploding)
        first = queue.entries()[0]
        # Claim released: a healthy peer retries immediately, nothing is lost.
        assert read_lease(queue.claim_path(first.fingerprint)) is None
        outcome = run_worker(queue, worker_id="w1", execute=fake_execute())
        assert outcome.n_executed == 4

    def test_double_execution_after_steal_merges_cleanly(self, queue, tmp_path):
        """Both the 'dead' and the stealing worker finished: dedup by
        fingerprint works because seeded results are deterministic."""
        entry = queue.entries()[0]
        # The dead worker got as far as appending to its store.
        dead_store = RunStore(queue.worker_store_path("dead"))
        dead_store.append(
            SuiteRunRecord(
                spec=entry.spec, result=FakeResult(entry.spec), wall_seconds=9.9
            ),
            fingerprint=entry.fingerprint,
        )
        _dead_claim(queue, entry.fingerprint)
        run_worker(queue, worker_id="w1", execute=fake_execute(), lease_seconds=0.5)
        merged = finalize_queue(queue, tmp_path / "merged.jsonl")
        assert len(merged) == 4
        assert entry.fingerprint in merged

    def test_finalize_refuses_an_undrained_queue(self, queue, tmp_path):
        run_worker(queue, worker_id="w0", execute=fake_execute(), max_runs=1)
        with pytest.raises(OrchestrationError, match="not drained"):
            finalize_queue(queue, tmp_path / "merged.jsonl")
        partial = finalize_queue(
            queue, tmp_path / "partial.jsonl", require_complete=False
        )
        assert len(partial) == 1

    def test_finalize_detects_a_lost_store_file(self, queue, tmp_path):
        run_worker(queue, worker_id="w0", execute=fake_execute())
        queue.worker_store_path("w0").rename(tmp_path / "lost.jsonl")
        # Another worker's store still exists but lacks the records.
        RunStore(queue.worker_store_path("w1")).append(
            SuiteRunRecord(
                spec=queue.entries()[0].spec,
                result=FakeResult(queue.entries()[0].spec),
                wall_seconds=0.1,
            ),
            fingerprint=queue.entries()[0].fingerprint,
        )
        with pytest.raises(OrchestrationError, match="missing"):
            finalize_queue(queue, tmp_path / "merged.jsonl")
        # Passing the relocated store back in repairs the merge.
        merged = finalize_queue(
            queue, tmp_path / "merged.jsonl",
            extra_stores=[tmp_path / "lost.jsonl"],
        )
        assert len(merged) == 4


class TestRetryBudgets:
    """``max_attempts``: in-place retries, failed/ markers, attempt leases."""

    def _fail_run(self, run_id, failures_left):
        budget = {"left": failures_left}

        def execute(spec, *, resume_state=None, on_cycle=None):
            if spec.run_id == run_id and budget["left"] > 0:
                budget["left"] -= 1
                raise RuntimeError("flaky")
            return FakeResult(spec), 0.01

        return execute

    def test_retry_succeeds_within_budget(self, queue):
        target = queue.entries()[0].spec.run_id
        outcome = run_worker(
            queue, worker_id="w0",
            execute=self._fail_run(target, failures_left=1), max_attempts=2,
        )
        assert outcome.n_executed == 4 and outcome.failed == []
        assert all(queue.is_done(e.fingerprint) for e in queue.entries())

    def test_budget_spent_publishes_failed_marker_and_drains(self, queue):
        entry = queue.entries()[0]
        outcome = run_worker(
            queue, worker_id="w0",
            execute=self._fail_run(entry.spec.run_id, failures_left=99),
            max_attempts=2,
        )
        # The worker did NOT raise: the poisoned run is terminated, the
        # other three completed, and the loop drained.
        assert outcome.failed == [entry.spec.run_id]
        assert outcome.n_executed == 3
        record = queue.failed_record(entry.fingerprint)
        assert record["attempts"] == 2 and "flaky" in record["error"]
        # Claim released so a manual retry (marker deleted) can reclaim.
        assert read_lease(queue.claim_path(entry.fingerprint)) is None
        progress = queue_progress(queue)
        assert progress.n_failed == 1 and progress.n_done == 3

    def test_finalize_names_failed_runs(self, queue, tmp_path):
        entry = queue.entries()[0]
        run_worker(
            queue, worker_id="w0",
            execute=self._fail_run(entry.spec.run_id, failures_left=99),
            max_attempts=2,
        )
        with pytest.raises(OrchestrationError, match=entry.spec.run_id):
            finalize_queue(queue, tmp_path / "merged.jsonl")
        partial = finalize_queue(
            queue, tmp_path / "partial.jsonl", require_complete=False
        )
        assert len(partial) == 3

    def test_stolen_claim_inherits_attempt_count(self, queue):
        """A stealer resumes the victim's budget position, not attempt 1."""
        entry = queue.entries()[0]
        stale = time.time() - 3600.0
        atomic_write_json(
            queue.claim_path(entry.fingerprint),
            {
                "worker": "dead", "claimed_at": stale,
                "heartbeat_at": stale, "attempt": 2,
            },
        )
        outcome = run_worker(
            queue, worker_id="w1", lease_seconds=0.5,
            execute=self._fail_run(entry.spec.run_id, failures_left=99),
            max_attempts=2,
        )
        # Inherited attempt 2 == budget: one failure marks it failed outright.
        assert outcome.failed == [entry.spec.run_id]
        assert queue.failed_record(entry.fingerprint)["attempts"] == 2

    def test_default_budget_keeps_fail_fast(self, queue):
        with pytest.raises(OrchestrationError, match="flaky"):
            run_worker(
                queue, worker_id="w0",
                execute=self._fail_run(queue.entries()[0].spec.run_id, 99),
            )
        assert queue.failed_fingerprints() == []


#: A long sequential campaign: 4 targets x 3 cycles = 12 checkpointable steps.
LONG_SWEEP = SweepSpec(
    protocols=("cont-v",),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 3, "n_sequences": 4},
)

#: Worker script that SIGKILLs itself after streaming KILL_AFTER checkpoints
#: of its first claimed run — a genuine mid-campaign crash (no cleanup, no
#: claim release, heartbeat dies with the process).
VICTIM_SCRIPT = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.orchestrate import run_worker
from repro.experiments.suite import execute_run

def killer(spec, *, resume_state=None, on_cycle=None):
    count = 0
    def hook(state):
        nonlocal count
        on_cycle(state)
        count += 1
        if count >= {kill_after}:
            os.kill(os.getpid(), signal.SIGKILL)
    return execute_run(spec, resume_state=resume_state, on_cycle=hook)

run_worker(
    {queue!r}, worker_id="victim", execute=killer,
    lease_seconds=30.0, checkpoint_seconds=0.0,
)
"""


def _repro_src():
    return str(Path(repro.__file__).resolve().parent.parent)


def entry_run_ids(queue):
    return [entry.spec.run_id for entry in queue.entries()]


def _kill_worker_mid_campaign(queue, kill_after):
    script = VICTIM_SCRIPT.format(
        src=_repro_src(), queue=str(queue.path), kill_after=kill_after
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    return proc


class TestPreemptiveStealing:
    """SIGKILL mid-campaign → steal → resume-from-checkpoint byte-identity."""

    @pytest.fixture()
    def long_queue(self, tmp_path):
        return WorkQueue.create(tmp_path / "queue", LONG_SWEEP)

    def _serial_reference(self, tmp_path, sweep):
        serial = RunStore(tmp_path / "serial.jsonl")
        CampaignSuite(sweep, executor="serial").run(store=serial)
        return prune_store(
            serial.path, tmp_path / "serial-canonical.jsonl", strip_timing=True
        )

    def test_sigkilled_worker_resumed_byte_identically(self, long_queue, tmp_path):
        _kill_worker_mid_campaign(long_queue, kill_after=3)
        checkpoints = CheckpointStore(long_queue.checkpoints_dir)
        [fingerprint] = checkpoints.fingerprints()
        assert checkpoints.latest_restorable(fingerprint).cycle == 3
        # Each line encodes the boundary it names: the victim saved every
        # state while its control stood at that state's cycle.
        lines = checkpoints.path(fingerprint).read_text().splitlines()
        states = [json.loads(line)["state"] for line in lines]
        assert [state["cycle"] for state in states] == [1, 2, 3]
        for state in states:
            pipelines = state["payload"]["pipelines"].values()
            assert sum(len(p["cycle_results"]) for p in pipelines) == state["cycle"]
        # The victim's claim is stale (heartbeat died with the process):
        # a survivor steals it and resumes from the cycle-3 checkpoint.
        survivor = run_worker(
            long_queue, worker_id="survivor",
            execute=execute_run, lease_seconds=0.5,
        )
        assert survivor.n_executed == 2
        assert len(survivor.stolen) == 1
        assert survivor.resumed and survivor.resumed[0][1] == 3
        finalized = finalize_queue(
            long_queue, tmp_path / "finalized.jsonl", strip_timing=True
        )
        reference = self._serial_reference(tmp_path, LONG_SWEEP)
        assert finalized.path.read_bytes() == reference.path.read_bytes()
        # Finished runs leave no checkpoints behind.
        assert checkpoints.fingerprints() == []

    def test_torn_checkpoint_falls_back_one_cycle(self, long_queue, tmp_path):
        _kill_worker_mid_campaign(long_queue, kill_after=3)
        checkpoints = CheckpointStore(long_queue.checkpoints_dir)
        [fingerprint] = checkpoints.fingerprints()
        # Tear the newest checkpoint line (crash on a non-atomic FS): the
        # survivor must fall back to the cycle-2 checkpoint and still finish
        # byte-identically (re-executing exactly one extra cycle).
        path = checkpoints.path(fingerprint)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        survivor = run_worker(
            long_queue, worker_id="survivor",
            execute=execute_run, lease_seconds=0.5,
        )
        assert survivor.resumed and survivor.resumed[0][1] == 2
        finalized = finalize_queue(
            long_queue, tmp_path / "finalized.jsonl", strip_timing=True
        )
        reference = self._serial_reference(tmp_path, LONG_SWEEP)
        assert finalized.path.read_bytes() == reference.path.read_bytes()

    def test_unknown_checkpoint_schema_rejected(self, long_queue):
        _kill_worker_mid_campaign(long_queue, kill_after=3)
        checkpoints = CheckpointStore(long_queue.checkpoints_dir)
        [fingerprint] = checkpoints.fingerprints()
        path = checkpoints.path(fingerprint)
        record = json.loads(path.read_text().splitlines()[-1])
        record["schema_version"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(OrchestrationError, match="unusable checkpoint"):
            run_worker(
                long_queue, worker_id="survivor",
                execute=execute_run, lease_seconds=0.5,
            )
        # The claim was released: discarding the bad checkpoint unblocks.
        checkpoints.discard(fingerprint)
        outcome = run_worker(
            long_queue, worker_id="survivor2",
            execute=execute_run, lease_seconds=0.5,
        )
        assert entry_run_ids(long_queue)[0] in outcome.executed
        assert all(
            long_queue.is_done(entry.fingerprint)
            for entry in long_queue.entries()
        )

    @pytest.mark.parametrize(
        "line_overrides",
        [
            {"schema_version": 3},
            {"schema_version": 4},
            {"state": {"protocol": "cont-v"}},
        ],
        ids=["schema-3", "schema-4", "malformed-state"],
    )
    def test_unusable_checkpoint_releases_the_claim(self, queue, line_overrides):
        entry = queue.entries()[0]
        _plant_checkpoint(queue, entry, **line_overrides)
        with pytest.raises(OrchestrationError, match="unusable checkpoint") as caught:
            run_worker(queue, worker_id="w0", execute=fake_execute())
        assert repr(entry.spec.run_id) in str(caught.value)
        assert not queue.claim_path(entry.fingerprint).exists()

    def test_payload_that_does_not_restore_is_refused_on_the_first_attempt(
        self, tmp_path
    ):
        """A current-schema line whose state decodes but whose payload does
        not restore is refused like one whose state does not decode: no
        retry from it, no failed marker, the claim released, the checkpoint
        kept."""
        sweep = SweepSpec(
            protocols=("cont-v",),
            seeds=(7,),
            targets=TargetSpec(kind="named-pdz", seed=11),
            base={"n_cycles": 2, "n_sequences": 4},
        )
        queue = WorkQueue.create(tmp_path / "queue", sweep)
        [entry] = queue.entries()
        checkpoints = _plant_checkpoint(queue, entry)
        attempts = []

        def counting_execute(spec, *, resume_state=None, on_cycle=None):
            attempts.append(resume_state)
            return execute_run(spec, resume_state=resume_state, on_cycle=on_cycle)

        with pytest.raises(OrchestrationError, match="unusable checkpoint") as caught:
            run_worker(
                queue, worker_id="w0", execute=counting_execute, max_attempts=2
            )
        assert repr(entry.spec.run_id) in str(caught.value)
        assert "does not restore" in str(caught.value)
        assert len(attempts) == 1
        assert not queue.is_failed(entry.fingerprint)
        assert not any(queue.failed_dir.iterdir())
        assert not queue.claim_path(entry.fingerprint).exists()
        assert checkpoints.fingerprints() == [entry.fingerprint]
        # Discarding the bad checkpoint lets the run succeed from its start.
        checkpoints.discard(entry.fingerprint)
        outcome = run_worker(queue, worker_id="w1", execute=execute_run)
        assert outcome.executed == [entry.spec.run_id]

    def test_checkpoint_of_another_run_is_refused_on_the_first_attempt(
        self, tmp_path
    ):
        """A real ``cont-v`` boundary of seed 8, saved under the seed-7 run's
        fingerprint, is refused at load like a payload that does not
        restore: the resume would fail the campaign's identity guard on
        every attempt."""
        sweep = SweepSpec(
            protocols=("cont-v",),
            seeds=(7, 8),
            targets=TargetSpec(kind="named-pdz", seed=11),
            base={"n_cycles": 2, "n_sequences": 4},
        )
        queue = WorkQueue.create(tmp_path / "queue", sweep)
        seven, eight = queue.entries()
        checkpoints = CheckpointStore(queue.checkpoints_dir)

        def save_first(state):
            if state.cycle == 1:
                checkpoints.save(
                    seven.fingerprint, state, run_id=seven.spec.run_id,
                    worker="old",
                )

        execute_run(eight.spec, on_cycle=save_first)
        attempts = []

        def counting_execute(spec, *, resume_state=None, on_cycle=None):
            attempts.append(spec.run_id)
            return execute_run(spec, resume_state=resume_state, on_cycle=on_cycle)

        with pytest.raises(OrchestrationError, match="unusable checkpoint") as caught:
            run_worker(
                queue, worker_id="w0", execute=counting_execute, max_attempts=2
            )
        assert repr(seven.spec.run_id) in str(caught.value)
        assert "protocol 'cont-v' seed 8" in str(caught.value)
        assert attempts == []
        assert not any(queue.failed_dir.iterdir())
        assert not queue.claim_path(seven.fingerprint).exists()
        assert checkpoints.fingerprints() == [seven.fingerprint]
        # Discarding the line lets both runs succeed from their start.
        checkpoints.discard(seven.fingerprint)
        outcome = run_worker(queue, worker_id="w1", execute=execute_run)
        assert outcome.executed == [seven.spec.run_id, eight.spec.run_id]
        assert outcome.resumed == []

    def test_unusable_checkpoint_leaves_a_peers_claim_alone(self, queue, monkeypatch):
        """The claim is released only while it still names this worker."""
        entry = queue.entries()[0]
        _plant_checkpoint(queue, entry, schema_version=99)
        claim_for_real = worker_module.try_claim

        def claim_then_lose_it(path, worker, *args, **kwargs):
            won = claim_for_real(path, worker, *args, **kwargs)
            if won:  # a peer's fresh lease replaces ours right away
                refresh_lease(path, "peer", time.time())
            return won

        monkeypatch.setattr(worker_module, "try_claim", claim_then_lose_it)
        with pytest.raises(OrchestrationError, match="unusable checkpoint"):
            run_worker(queue, worker_id="w0", execute=fake_execute())
        assert read_lease(queue.claim_path(entry.fingerprint)).worker == "peer"

    def test_status_reports_cycle_progress_of_in_flight_runs(self, long_queue):
        """A live claim's progress shows cycle-granular status and feeds the
        cycle-aware ETA credit."""
        entry = long_queue.entries()[0]
        claim = long_queue.claim_path(entry.fingerprint)
        try_claim(claim, "parked")
        refresh_lease(claim, "parked", time.time(), cycle=9, cycles_total=12)
        progress = queue_progress(long_queue, lease_seconds=60.0)
        [running] = progress.running
        assert running.cycle == 9 and running.cycles_total == 12
        assert progress.cycles_in_flight_credit == pytest.approx(0.75)


class TestEncodeOnSave:
    """A state is encoded when the worker saves it, not at every step."""

    def test_throttled_drain_encodes_one_snapshot_per_run(
        self, tmp_path, monkeypatch
    ):
        snapshots = []
        snapshot = ControlProtocol.snapshot

        def counting(control):
            snapshots.append(control)
            return snapshot(control)

        monkeypatch.setattr(ControlProtocol, "snapshot", counting)
        saved = []
        save = CheckpointStore.save

        def recording(store, fingerprint, state, **kwargs):
            saved.append(state.cycle)
            return save(store, fingerprint, state, **kwargs)

        monkeypatch.setattr(CheckpointStore, "save", recording)
        queue = WorkQueue.create(tmp_path / "queue", LONG_SWEEP)
        outcome = run_worker(
            queue, worker_id="w0", execute=execute_run,
            checkpoint_seconds=float("inf"),
        )
        # Two runs of 12 cycles each; the throttle saves each run's first
        # state only, and only a save encodes.
        assert outcome.n_executed == 2
        assert saved == [1, 1]
        assert len(snapshots) == 2 and snapshots[0] is not snapshots[1]


class _Died(BaseException):
    """A worker's death mid-run: nothing in the worker catches it, so the
    claim stays held, as a SIGKILL leaves it."""


class TestResumedSpacing:
    """A resumed attempt counts the checkpoint spacing from the line it read:
    that line is the run's latest restore point, so it is not rewritten."""

    PLANTED = 5

    @pytest.fixture()
    def planted(self, tmp_path, monkeypatch):
        """A LONG_SWEEP queue whose first run died at a real cont-v boundary
        (saved inside the observer, as a worker saves it) with a stale claim,
        and the ``(run_id, cycle)`` of every save made from then on."""
        queue = WorkQueue.create(tmp_path / "queue", LONG_SWEEP)
        entry = queue.entries()[0]
        checkpoints = CheckpointStore(queue.checkpoints_dir)

        def victim(state):
            if state.cycle == self.PLANTED:
                checkpoints.save(
                    entry.fingerprint, state, run_id=entry.spec.run_id,
                    worker="victim",
                )
                raise _Died()

        with pytest.raises(_Died):
            execute_run(entry.spec, on_cycle=victim)
        _dead_claim(queue, entry.fingerprint, worker="victim")
        saved = []
        save = CheckpointStore.save

        def recording(store, fingerprint, state, *, run_id, worker):
            saved.append((run_id, state.cycle))
            return save(store, fingerprint, state, run_id=run_id, worker=worker)

        monkeypatch.setattr(CheckpointStore, "save", recording)
        return queue, entry, checkpoints, saved

    def test_throttled_thief_saves_no_line(self, planted):
        queue, entry, _, saved = planted
        outcome = run_worker(
            queue, worker_id="thief", execute=execute_run, lease_seconds=0.5,
            checkpoint_seconds=float("inf"),
        )
        assert outcome.resumed == [(entry.spec.run_id, self.PLANTED)]
        assert outcome.stolen == [entry.spec.run_id]
        # The resumed run saves nothing; the fresh run still saves its first
        # boundary.
        other = queue.entries()[1].spec.run_id
        assert saved == [(other, 1)]

    def test_unthrottled_thief_saves_every_boundary_after_the_resume(self, planted):
        queue, entry, _, saved = planted
        outcome = run_worker(
            queue, worker_id="thief", execute=execute_run, lease_seconds=0.5,
            checkpoint_seconds=0.0,
        )
        assert outcome.resumed == [(entry.spec.run_id, self.PLANTED)]
        other = queue.entries()[1].spec.run_id
        assert saved == (
            [(entry.spec.run_id, cycle) for cycle in range(self.PLANTED + 1, 13)]
            + [(other, cycle) for cycle in range(1, 13)]
        )

    def test_thief_dying_before_its_first_save_leaves_the_line_it_read(
        self, planted, tmp_path
    ):
        queue, entry, checkpoints, saved = planted
        planted_line = checkpoints.path(entry.fingerprint).read_bytes()

        def dying(spec, *, resume_state=None, on_cycle=None):
            def hook(state):
                on_cycle(state)
                if state.cycle == self.PLANTED + 3:
                    raise _Died()

            return execute_run(spec, resume_state=resume_state, on_cycle=hook)

        with pytest.raises(_Died):
            run_worker(
                queue, worker_id="thief", execute=dying, lease_seconds=0.3,
                checkpoint_seconds=float("inf"),
            )
        assert saved == []
        assert checkpoints.path(entry.fingerprint).read_bytes() == planted_line
        assert read_lease(queue.claim_path(entry.fingerprint)).worker == "thief"
        # Once the dead thief's lease goes stale, a third worker resumes from
        # the same line and the sweep finalizes as a serial run stores it.
        third = run_worker(
            queue, worker_id="third", execute=execute_run, lease_seconds=0.3,
            poll_seconds=0.05, checkpoint_seconds=float("inf"),
        )
        assert third.resumed == [(entry.spec.run_id, self.PLANTED)]
        assert third.stolen == [entry.spec.run_id]
        finalized = finalize_queue(
            queue, tmp_path / "finalized.jsonl", strip_timing=True
        )
        serial = RunStore(tmp_path / "serial.jsonl")
        CampaignSuite(LONG_SWEEP, executor="serial").run(store=serial)
        reference = prune_store(
            serial.path, tmp_path / "serial-canonical.jsonl", strip_timing=True
        )
        assert finalized.path.read_bytes() == reference.path.read_bytes()


class TestLeaseProgress:
    """A running run's progress rides its heartbeat lease, not a checkpoint."""

    def test_status_reads_the_lease_and_no_checkpoint(self, queue):
        entry = queue.entries()[0]
        _plant_checkpoint(queue, entry, schema_version=99)
        claim = queue.claim_path(entry.fingerprint)
        refresh_lease(claim, "parked", time.time(), cycle=9, cycles_total=12)
        progress = queue_progress(queue, lease_seconds=60.0)
        [running] = progress.running
        assert (running.cycle, running.cycles_total) == (9, 12)
        assert "cycle 9/12" in format_queue_progress(progress)

    def test_resumed_attempts_first_beat_carries_the_resume_cycle(self, queue):
        entry = queue.entries()[0]
        _plant_checkpoint(queue, entry, cycle=5)
        _dead_claim(queue, entry.fingerprint)
        claim = queue.claim_path(entry.fingerprint)
        first_beats = []

        def execute(spec, *, resume_state=None, on_cycle=None):
            if resume_state is not None:
                won = read_lease(claim)
                deadline = time.time() + 10.0
                lease = won
                while lease.heartbeat_at == won.heartbeat_at:
                    assert time.time() < deadline, "no heartbeat"
                    time.sleep(0.005)
                    lease = read_lease(claim)
                first_beats.append((won, lease))
            return FakeResult(spec), 0.01

        outcome = run_worker(
            queue, worker_id="thief", execute=execute, lease_seconds=0.2
        )
        assert outcome.resumed == [(entry.spec.run_id, 5)]
        [(won, beat)] = first_beats
        assert won.worker == beat.worker == "thief"
        assert (beat.cycle, beat.cycles_total) == (5, 12)

    def test_only_restore_points_are_checkpointed(self, queue, monkeypatch):
        saved = []
        save = CheckpointStore.save

        def recording(store, fingerprint, state, *, run_id, worker):
            saved.append(run_id)
            return save(store, fingerprint, state, run_id=run_id, worker=worker)

        monkeypatch.setattr(CheckpointStore, "save", recording)
        outcome = run_worker(
            queue, worker_id="w0", execute=execute_run, checkpoint_seconds=0.0
        )
        assert outcome.n_executed == 4
        # One save per cont-v cycle boundary (4 targets x 1 cycle); the
        # im-rp runs' progress states go to the heartbeat only.
        assert sorted(saved) == ["cont-v-s3"] * 4 + ["cont-v-s5"] * 4


class TestDistributedDeterminism:
    """The acceptance contract: N-worker finalize == serial suite store."""

    def _serial_reference(self, tmp_path):
        serial = RunStore(tmp_path / "serial.jsonl")
        CampaignSuite(SWEEP, executor="serial").run(store=serial)
        return prune_store(
            serial.path, tmp_path / "serial-canonical.jsonl", strip_timing=True
        )

    def test_two_worker_finalize_is_byte_identical_to_serial(self, queue, tmp_path):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(
                    run_worker,
                    queue,
                    worker_id=f"w{i}",
                    execute=execute_run,
                    lease_seconds=60.0,
                )
                for i in range(2)
            ]
            for future in futures:
                future.result()
        finalized = finalize_queue(
            queue, tmp_path / "finalized.jsonl", strip_timing=True
        )
        reference = self._serial_reference(tmp_path)
        assert finalized.path.read_bytes() == reference.path.read_bytes()

    def test_killed_worker_loses_no_runs(self, queue, tmp_path):
        """A worker dies mid-sweep; the survivor reclaims and the finalized
        store is still complete and byte-identical to the serial reference."""
        entries = queue.entries()
        # The dead worker had claimed two runs and completed neither.
        _dead_claim(queue, entries[0].fingerprint)
        _dead_claim(queue, entries[2].fingerprint)
        survivor = run_worker(
            queue, worker_id="survivor", execute=execute_run, lease_seconds=0.5
        )
        assert survivor.n_executed == 4
        assert len(survivor.stolen) == 2
        finalized = finalize_queue(
            queue, tmp_path / "finalized.jsonl", strip_timing=True
        )
        assert sorted(finalized.fingerprints()) == sorted(
            entry.fingerprint for entry in entries
        )
        reference = self._serial_reference(tmp_path)
        assert finalized.path.read_bytes() == reference.path.read_bytes()


class TestSharedTargetBuilds:
    """One drain builds each distinct target set once, watchdog included."""

    @pytest.mark.parametrize("run_timeout", [None, 60.0])
    def test_drain_builds_its_targets_once(self, queue, dataset_builds, run_timeout):
        outcome = run_worker(queue, worker_id="w0", run_timeout=run_timeout)
        assert outcome.n_executed == 4
        # Per-run building took 4; the watchdog's attempt thread must share
        # the drain's builds too.
        assert dataset_builds == ["named_pdz_targets"]


class TestRunTimeout:
    """``run_timeout``: the per-run wall-clock watchdog."""

    def _hang(self, run_id, seconds=10.0):
        def execute(spec, *, resume_state=None, on_cycle=None):
            if spec.run_id == run_id:
                time.sleep(seconds)
            return FakeResult(spec), 0.01

        return execute

    def test_timeout_counts_against_the_budget(self, queue):
        """A hung run is abandoned, retried, then failed with reason
        ``timeout`` — and the rest of the sweep still drains."""
        entry = queue.entries()[0]
        outcome = run_worker(
            queue, worker_id="w0",
            execute=self._hang(entry.spec.run_id),
            max_attempts=2, run_timeout=0.2,
        )
        assert outcome.failed == [entry.spec.run_id]
        assert outcome.n_executed == 3
        record = queue.failed_record(entry.fingerprint)
        assert record["reason"] == "timeout"
        assert "watchdog" in record["error"]
        # Claim released: a peer (or a marker-deleting retry) takes over
        # immediately instead of waiting out the hung worker's lease.
        assert read_lease(queue.claim_path(entry.fingerprint)) is None

    def test_timeout_with_default_budget_fails_fast(self, queue):
        entry = queue.entries()[0]
        with pytest.raises(OrchestrationError, match="watchdog"):
            run_worker(
                queue, worker_id="w0",
                execute=self._hang(entry.spec.run_id), run_timeout=0.2,
            )
        assert read_lease(queue.claim_path(entry.fingerprint)) is None

    def test_fast_runs_are_untouched_by_the_watchdog(self, queue):
        outcome = run_worker(
            queue, worker_id="w0", execute=fake_execute(), run_timeout=30.0
        )
        assert outcome.n_executed == 4 and outcome.failed == []

    def test_abandoned_zombie_is_fenced_at_its_next_cycle(self, queue):
        """The abandoned attempt's thread stops at its next cycle boundary
        instead of checkpointing (or appending) behind the worker's back."""
        from repro.core.protocols import CampaignState

        entry = queue.entries()[0]
        zombie_stopped = threading.Event()

        def looping(spec, *, resume_state=None, on_cycle=None):
            if spec.run_id != entry.spec.run_id:
                return FakeResult(spec), 0.01
            cycle = 0
            try:
                while True:
                    cycle += 1
                    on_cycle(
                        CampaignState(spec.protocol, seed=spec.seed, cycle=cycle)
                    )
                    time.sleep(0.02)
            except BaseException:
                zombie_stopped.set()
                raise

        outcome = run_worker(
            queue, worker_id="w0", execute=looping,
            max_attempts=2, run_timeout=0.3,
            checkpoint_seconds=3600.0,  # the zombie must not even get here
        )
        assert outcome.failed == [entry.spec.run_id]
        assert zombie_stopped.wait(2.0)

    def test_run_timeout_must_be_positive(self, queue):
        with pytest.raises(OrchestrationError, match="run_timeout"):
            run_worker(queue, worker_id="w0", run_timeout=0.0)

    def test_lease_budget_and_checkpoint_settings_validated(self, queue):
        with pytest.raises(OrchestrationError, match="lease_seconds and poll_seconds"):
            run_worker(queue, worker_id="w0", lease_seconds=0.0)
        with pytest.raises(OrchestrationError, match="lease_seconds and poll_seconds"):
            run_worker(queue, worker_id="w0", poll_seconds=-1.0)
        with pytest.raises(OrchestrationError, match="max_attempts"):
            run_worker(queue, worker_id="w0", max_attempts=0)
        with pytest.raises(OrchestrationError, match="checkpoint_seconds"):
            run_worker(queue, worker_id="w0", checkpoint_seconds=-1.0)
        assert queue_progress(queue).n_unclaimed == 4  # nothing was claimed


class TestPoisonQuarantine:
    """Runs that kill their workers repeatedly are quarantined, not
    re-stolen forever — but only when an explicit retry budget opts in."""

    def _crashed_claim(self, queue, fingerprint, crashes):
        stale = time.time() - 3600.0
        atomic_write_json(
            queue.claim_path(fingerprint),
            {
                "worker": "dead", "claimed_at": stale, "heartbeat_at": stale,
                "attempt": 1, "crashes": crashes,
            },
        )

    def test_crash_budget_spent_quarantines_without_executing(self, queue):
        entry = queue.entries()[0]
        # One incarnation already died; this steal records the second.
        self._crashed_claim(queue, entry.fingerprint, crashes=1)
        calls = []
        outcome = run_worker(
            queue, worker_id="w1", execute=fake_execute(calls),
            lease_seconds=0.5, max_attempts=2,
        )
        assert outcome.poisoned == [entry.spec.run_id]
        assert outcome.failed == [entry.spec.run_id]
        assert entry.spec.run_id not in calls  # quarantined, not re-run
        assert outcome.n_executed == 3
        record = queue.failed_record(entry.fingerprint)
        assert record["reason"] == "poison"
        assert read_lease(queue.claim_path(entry.fingerprint)) is None

    def test_first_crash_is_still_stolen_and_executed(self, queue):
        entry = queue.entries()[0]
        self._crashed_claim(queue, entry.fingerprint, crashes=0)
        outcome = run_worker(
            queue, worker_id="w1", execute=fake_execute(),
            lease_seconds=0.5, max_attempts=2,
        )
        assert outcome.poisoned == []
        assert entry.spec.run_id in outcome.stolen
        assert outcome.n_executed == 4

    def test_default_budget_keeps_unlimited_crash_stealing(self, queue):
        """max_attempts=1 (the original contract): a run is never condemned
        for crashing its workers, however often."""
        entry = queue.entries()[0]
        self._crashed_claim(queue, entry.fingerprint, crashes=99)
        outcome = run_worker(
            queue, worker_id="w1", execute=fake_execute(), lease_seconds=0.5
        )
        assert outcome.poisoned == []
        assert entry.spec.run_id in outcome.stolen
        assert outcome.n_executed == 4
