"""In-process failpoint semantics at the durability seams.

Crash kinds (``crash_after_write``, ``crash_before_rename``) SIGKILL the
process and are exercised through subprocess workers in the chaos tests;
here we cover every fault a test process can survive: error raises, torn
payloads that the existing recovery machinery must heal, deterministic
stalls, and clock skew — plus the retry helper healing transient injections.
"""

from __future__ import annotations

import errno
import json
import time

import pytest

from repro import faults
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.faults import FaultPlan, ForcedFault
from repro.faults import plan as plan_module
from repro.orchestrate import WorkQueue, read_lease, try_claim
from repro.orchestrate.lease import refresh_lease
from repro.store import RunStore
from repro.store.checkpoint import CheckpointStore
from repro.utils.retrying import RetryPolicy, call_with_retries
from repro.utils.serialization import atomic_write_text

SWEEP = SweepSpec(
    protocols=("im-rp",),
    seeds=(3,),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture(scope="module")
def record():
    """One executed suite record (read-only) shared by the tests."""
    return CampaignSuite(SWEEP, executor="serial").run().records[0]


def forced(site, at, kind):
    return FaultPlan(0, force=[ForcedFault(site, at, kind)])


class TestStoreAppendFaults:
    def test_io_error_raises_before_touching_disk(self, tmp_path, record):
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "io_error")):
            with pytest.raises(OSError) as caught:
                store.append(record)
        assert caught.value.errno == errno.EIO
        assert not store.path.exists()

    def test_enospc_raises_with_the_honest_errno(self, tmp_path, record):
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "enospc")):
            with pytest.raises(OSError) as caught:
                store.append(record)
        assert caught.value.errno == errno.ENOSPC

    def test_torn_append_is_overwritten_by_the_retry(self, tmp_path, record):
        """A torn line is a crash-shaped tail: the next append heals it."""
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "torn_write")):
            with pytest.raises(OSError):
                store.append(record)
            torn = store.path.read_bytes()
            assert torn and not torn.endswith(b"\n")
            fingerprint = store.append(record)  # crossing 2: clean
        healed = RunStore(store.path)
        assert healed.fingerprints() == [fingerprint]
        assert healed.get(fingerprint).run_id == record.spec.run_id

    def test_torn_append_heals_across_a_reopen(self, tmp_path, record):
        """The torn tail also heals when a *fresh process* opens the store."""
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "torn_write")):
            with pytest.raises(OSError):
                store.append(record)
        reopened = RunStore(store.path)
        assert len(reopened) == 0
        fingerprint = reopened.append(record)
        assert RunStore(store.path).fingerprints() == [fingerprint]

    def test_retry_helper_heals_a_transient_injection(self, tmp_path, record):
        """``call_with_retries`` + a one-shot fault = a healed append."""
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "io_error")):
            call_with_retries(
                lambda: store.append(record),
                policy=RetryPolicy(attempts=3, base_delay=0.001),
            )
        assert len(RunStore(store.path)) == 1

    def test_slow_io_stalls_but_the_append_succeeds(
        self, tmp_path, record, monkeypatch
    ):
        monkeypatch.setattr(plan_module, "_MAX_DELAY", 0.01)
        plan = FaultPlan(0, rates={"slow_io": 1.0})
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(plan):
            store.append(record)
        assert len(RunStore(store.path)) == 1


class TestAtomicWriteFaults:
    def test_torn_write_leaves_a_detectably_torn_file(self, tmp_path):
        """The torn marker file parses as garbage, never as a wrong payload."""
        target = tmp_path / "marker.json"
        payload = json.dumps({"fingerprint": "f" * 64, "ok": True}) + "\n"
        with faults.injected_plan(forced("queue.mark_done", 1, "torn_write")):
            with pytest.raises(OSError):
                atomic_write_text(
                    target, payload, failpoint_site="queue.mark_done"
                )
        torn = target.read_text(encoding="utf-8")
        assert torn == payload[: len(payload) // 2]
        with pytest.raises(ValueError):
            json.loads(torn)

    def test_io_error_leaves_the_previous_content_intact(self, tmp_path):
        target = tmp_path / "marker.json"
        atomic_write_text(target, "old\n", failpoint_site="queue.mark_done")
        with faults.injected_plan(forced("queue.mark_done", 1, "io_error")):
            atomic_write_text(
                target, "old\n", failpoint_site="other.site"
            )  # other sites keep their own crossing counters
            with pytest.raises(OSError):
                atomic_write_text(
                    target, "new\n", failpoint_site="queue.mark_done"
                )
        assert target.read_text(encoding="utf-8") == "old\n"

    def test_stranded_temp_files_do_not_pollute_marker_globs(self, tmp_path):
        """A ``crash_before_rename`` strands a temp file; directory globs
        (done/failed/checkpoint listings) must never mistake it for a marker.
        """
        queue_dir = tmp_path / "queue"
        queue = WorkQueue.create(queue_dir, SWEEP)
        fingerprint = queue.entries()[0].fingerprint
        queue.mark_done(
            fingerprint, worker_id="w0", run_id="r0", wall_seconds=0.0
        )
        # The exact temp-name shape atomic_write_text uses, stranded by a
        # crash between the temp write and os.replace.
        stranded = queue.done_dir / ".something.json.tmp-4242-1"
        stranded.write_text("{}", encoding="utf-8")
        (queue.checkpoints_dir / ".x.jsonl.tmp-4242-1").write_text(
            "{}", encoding="utf-8"
        )
        assert queue.done_fingerprints() == [fingerprint]
        assert queue.worker_store_paths() == []
        assert CheckpointStore(queue.checkpoints_dir).fingerprints() == []


class TestLeaseFaults:
    def test_torn_claim_degrades_to_an_mtime_lease(self, tmp_path):
        claim = tmp_path / "claim.json"
        with faults.injected_plan(forced("lease.try_claim", 1, "torn_write")):
            with pytest.raises(OSError):
                try_claim(claim, "w0")
        lease = read_lease(claim)
        assert lease is not None and lease.torn
        assert not lease.expired(lease_seconds=60.0)

    def test_clock_skew_offsets_the_heartbeat(self, tmp_path, monkeypatch):
        claim = tmp_path / "claim.json"
        monkeypatch.setattr(plan_module, "_MAX_SKEW", 3600.0)
        plan = FaultPlan(0, rates={"clock_skew": 1.0})
        with faults.injected_plan(plan):
            skew = plan.decide("lease.clock").skew  # crossing 1: pin the draw
        with faults.injected_plan(FaultPlan(0, rates={"clock_skew": 1.0})):
            refresh_lease(claim, "w0", claimed_at=time.time())
        lease = read_lease(claim)
        assert lease.heartbeat_at == pytest.approx(time.time() + skew, abs=5.0)

    def test_checkpoint_save_torn_write_falls_back_a_cycle(self, tmp_path):
        """An injected torn checkpoint loses the newest line, not the run.

        The tear persists half of the rewritten ladder file; the cycle-2
        payload is made much larger than cycle 1's so the midpoint always
        lands inside line 2 (a half-and-half split would leave the outcome
        to timestamp-repr luck)."""
        from repro.core.protocols import CampaignState

        store = CheckpointStore(tmp_path / "checkpoints")
        state1 = CampaignState("im-rp", seed=3, cycle=1, payload={"x": 1})
        state2 = CampaignState(
            "im-rp", seed=3, cycle=2, payload={"x": "y" * 2048}
        )
        store.save("f" * 8, state1, run_id="r", worker="w")
        with faults.injected_plan(forced("checkpoint.save", 1, "torn_write")):
            with pytest.raises(OSError):
                store.save("f" * 8, state2, run_id="r", worker="w")
        latest = store.latest_restorable("f" * 8)
        assert latest is not None and latest.cycle == 1


class TestRegistryLifecycle:
    def test_disabled_failpoint_is_none(self):
        faults.deactivate()
        assert faults.failpoint("store.append") is None

    def test_injected_plan_restores_the_previous_state(self):
        faults.deactivate()
        with faults.injected_plan(forced("store.append", 1, "io_error")):
            assert faults.active_plan() is not None
        assert faults.active_plan() is None

    def test_fired_events_are_logged_per_pid(self, tmp_path):
        """Fired faults land as telemetry-schema events, one file per pid."""
        import os

        plan = FaultPlan(
            0,
            force=[ForcedFault("store.append", 1, "io_error")],
            log_dir=str(tmp_path / "events"),
        )
        with faults.injected_plan(plan):
            event = faults.failpoint("store.append")
        assert event is not None
        log = tmp_path / "events" / f"{os.getpid()}.jsonl"
        [line] = log.read_text(encoding="utf-8").splitlines()
        logged = json.loads(line)
        assert logged["kind"] == "event"
        assert logged["name"] == "fault"
        assert logged["pid"] == os.getpid()
        assert logged["attrs"]["site"] == "store.append"
        assert logged["attrs"]["kind"] == "io_error"
        assert logged["attrs"]["index"] == 1

    def test_fired_events_ride_an_active_telemetry_stream(self, tmp_path):
        """With tracing on, faults skip the log_dir and join the one stream."""
        from repro import telemetry

        plan = FaultPlan(
            0,
            force=[ForcedFault("store.append", 1, "io_error")],
            log_dir=str(tmp_path / "events"),
        )
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            with faults.injected_plan(plan):
                assert faults.failpoint("store.append") is not None
        assert not (tmp_path / "events").exists()
        [record] = telemetry.read_telemetry_dir(tmp_path / "telemetry")
        assert record["name"] == "fault"
        assert record["worker"] == "w0"
        assert record["attrs"]["site"] == "store.append"
