"""The cycle-granular campaign state machine: observation and resume.

The contract: an observed ``run_stepwise`` (the initial state, then one step
per design cycle, with an ``on_state`` hook) finishes byte-identical to an
unobserved ``run()``, and a campaign suspended at any cycle boundary — its
state round-tripped through JSON, as a cross-process resume would — finishes
byte-identical to an uninterrupted run.  An observed state's ``runtime`` is
the live execution, which keeps stepping after the state is handed out, so a
state is encoded (saved) inside the observer, and a resume always starts from
the JSON round-trip.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import control as control_module
from repro.core import pipeline as pipeline_module
from repro.core.campaign import CampaignConfig, CampaignState, DesignCampaign
from repro.core.coordinator import AUTO_IN_FLIGHT, PipelinesCoordinator
from repro.exceptions import CampaignError, StoreError
from repro.hpc.profiling import ExecutionProfiler
from repro.protein.datasets import expanded_pdz_set, named_pdz_targets
from repro.runtime.task import Task

CONFIG = CampaignConfig(protocol="cont-v", seed=7, n_cycles=3, n_sequences=5)


def _campaign(config=CONFIG):
    return DesignCampaign(named_pdz_targets(seed=11), config)


def _result_bytes(result):
    return json.dumps(result.as_dict(), sort_keys=True)


def _observed_states(config=CONFIG):
    """Every state an observed run hands its ``on_state`` hook, in order."""
    states = []
    _campaign(config).run_stepwise(on_state=states.append)
    return states


def _revived(state):
    """``state`` as a fresh process reads it back from a checkpoint."""
    return CampaignState.from_dict(json.loads(json.dumps(state.as_dict())))


def _saved_states(config=CONFIG):
    """Every state an observed run hands its hook, each saved (encoded and
    read back) inside the hook, as a checkpointing worker saves it."""
    states = []
    _campaign(config).run_stepwise(
        on_state=lambda state: states.append(_revived(state))
    )
    return states


def _counted_snapshots(monkeypatch):
    """Every ``ControlProtocol.snapshot`` call made from now on."""
    snapshots = []
    snapshot = control_module.ControlProtocol.snapshot

    def counting(self):
        snapshots.append(self)
        return snapshot(self)

    monkeypatch.setattr(control_module.ControlProtocol, "snapshot", counting)
    return snapshots


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial result, per protocol config."""
    cache = {}

    def build(config):
        key = (
            config.protocol,
            config.seed,
            config.n_cycles,
            config.n_sequences,
            config.max_in_flight_pipelines,
        )
        if key not in cache:
            cache[key] = _result_bytes(_campaign(config).run())
        return cache[key]

    return build


class TestStepLoopEquivalence:
    @pytest.mark.parametrize(
        "protocol", ["im-rp", "cont-v", "im-rp-random", "cont-v-ranked"]
    )
    def test_observed_run_equals_run(self, protocol, reference):
        config = CampaignConfig(
            protocol=protocol, seed=7, n_cycles=2, n_sequences=4
        )
        states = []
        result = _campaign(config).run_stepwise(on_state=states.append)
        assert _result_bytes(result) == reference(config)
        final = states[-1]
        assert final.done and [s for s in states if s.done] == [final]
        if protocol.startswith("cont-v"):
            # One step per (target, cycle): 4 targets x 2 cycles.
            assert len(states) == 8
            assert final.cycle == 8 and final.cycles_total == 8
            assert all(state.restorable for state in states)
        else:
            # One step per completed cycle, then the step that drains the
            # simulation.
            assert final.cycle >= 8  # roots + adaptively spawned sub-pipelines
            assert len(states) == final.cycle + 1
            assert not any(state.restorable for state in states)

    @pytest.mark.parametrize("cap", [None, 2, AUTO_IN_FLIGHT])
    @pytest.mark.parametrize("protocol", ["im-rp", "im-rp-random"])
    def test_pilot_steps_one_cycle_at_a_time(self, protocol, cap, reference):
        config = CampaignConfig(
            protocol=protocol,
            seed=7,
            n_cycles=2,
            n_sequences=4,
            max_in_flight_pipelines=cap,
        )
        seen = []

        def observe(state):
            seen.append((state, state.runtime.n_cycles_completed))

        result = _campaign(config).run_stepwise(on_state=observe)
        assert _result_bytes(result) == reference(config)
        states = [state for state, _ in seen]
        n = states[-1].cycle
        assert [state.cycle for state in states] == [*range(1, n + 1), n]
        assert [state.done for state in states] == [False] * n + [True]
        # Each state carries the live coordinator, seen at that very cycle.
        coordinator = states[0].runtime
        assert isinstance(coordinator, PipelinesCoordinator)
        assert all(state.runtime is coordinator for state in states)
        assert all(live == state.cycle for state, live in seen)
        assert all(state.payload is None for state in states)

    def test_sequential_states_are_restorable_checkpoints(self):
        state = _saved_states()[0]
        assert state.restorable and state.payload is not None
        json.dumps(state.as_dict())  # JSON-able by construction

    def test_steps_encode_nothing_observed_or_not(self, monkeypatch):
        snapshots = _counted_snapshots(monkeypatch)
        _campaign().run()
        states = _observed_states()
        assert snapshots == []
        assert len(states) == 12
        assert all(state.restorable and state.payload is None for state in states)
        # Saving is what encodes: one snapshot per state saved.
        assert len(_saved_states()) == len(snapshots) == 12

    def test_a_state_whose_control_stepped_on_refuses_to_encode(self):
        states = _observed_states()
        # The last state still stands where its control stands.
        assert states[-1].as_dict()["cycle"] == 12
        stale = states[4]
        assert stale.runtime.n_cycles_completed == 12
        with pytest.raises(CampaignError, match="stepped on to cycle 12"):
            stale.as_dict()

    def test_pilot_terminal_state_is_not_restorable(self):
        config = CampaignConfig(protocol="im-rp", seed=7, n_cycles=2, n_sequences=4)
        state = _observed_states(config)[-1]
        assert state.done and not state.restorable

    def test_pilot_progress_states_name_their_campaign(self):
        config = CampaignConfig(protocol="im-rp-random", seed=7, n_cycles=2, n_sequences=4)
        seen = []
        _campaign(config).run_stepwise(on_state=seen.append)
        progress = seen[:-1]
        assert [s.cycle for s in progress] == list(range(1, len(progress) + 1))
        for state in progress:
            assert (state.protocol, state.seed) == ("im-rp-random", 7)
            assert state.cycles_total is None  # spawning makes the total emergent
            assert not state.done and state.payload is None
            assert isinstance(state.runtime, PipelinesCoordinator)


class TestResumeDeterminism:
    @pytest.mark.parametrize("interrupt_after", range(1, 12))
    @pytest.mark.parametrize("protocol", ["cont-v", "cont-v-ranked"])
    def test_resume_from_json_roundtrip_is_byte_identical(
        self, protocol, interrupt_after, reference
    ):
        config = dataclasses.replace(CONFIG, protocol=protocol)
        state = _saved_states(config)[interrupt_after - 1]
        assert not state.done
        # Cross-process simulation: the state travels as JSON text.
        resumed = _campaign(config).run_stepwise(resume_from=_revived(state))
        assert _result_bytes(resumed) == reference(config)

    def test_resume_skips_completed_cycles(self):
        revived = _saved_states()[4]
        observed = []
        _campaign().run_stepwise(resume_from=revived, on_state=observed.append)
        # 12 total (target, cycle) steps, 5 already done: only 7 execute.
        assert len(observed) == 7
        assert observed[0].cycle == 6

    def test_ranked_ablation_resumes_identically(self):
        config = CampaignConfig(
            protocol="cont-v-ranked", seed=3, n_cycles=2, n_sequences=4
        )
        expected = _result_bytes(_campaign(config).run())
        revived = _saved_states(config)[2]
        resumed = _campaign(config).run_stepwise(resume_from=revived)
        assert _result_bytes(resumed) == expected

    def test_resume_rejects_mismatched_identity(self):
        state = _saved_states()[0]
        other = CampaignConfig(protocol="cont-v", seed=8, n_cycles=3, n_sequences=5)
        with pytest.raises(CampaignError, match="seed"):
            _campaign(other).run_stepwise(resume_from=state)

    def test_resume_rejects_progress_only_state(self):
        progress = CampaignState(protocol="cont-v", seed=7, cycle=2, payload=None)
        with pytest.raises(CampaignError, match="not a restorable"):
            _campaign().run_stepwise(resume_from=progress)

    def test_resume_rejects_a_live_state(self):
        # A live state's control keeps stepping after the state is handed
        # out; only a saved state names the boundary it restores.
        live = _observed_states()[4]
        assert live.restorable and live.payload is None
        with pytest.raises(CampaignError, match="not a restorable"):
            _campaign().run_stepwise(resume_from=live)

    @pytest.mark.parametrize("protocol", ["cont-v", "im-rp"])
    def test_resume_rejects_done_state_with_nothing_to_finalize(self, protocol):
        config = CampaignConfig(protocol=protocol, seed=7, n_cycles=3, n_sequences=5)
        done = CampaignState(
            protocol=protocol, seed=7, cycle=12, cycles_total=12, done=True
        )
        with pytest.raises(CampaignError, match="not a restorable"):
            _campaign(config).run_stepwise(resume_from=done)


def _trace(campaign):
    """A finished run's profiler trace, task ids included."""
    profiler = campaign.platform.profiler
    return profiler.resource_intervals, profiler.phase_totals()


class TestTaskIdentity:
    """A task's identity is its name, so a trace does not depend on the process."""

    @pytest.mark.parametrize("interrupt_after", [1, 5, 11])
    def test_resumed_run_records_the_uninterrupted_trace(self, interrupt_after):
        uninterrupted = _campaign()
        states = []
        uninterrupted.run_stepwise(
            on_state=lambda state: states.append(_revived(state))
        )
        resumed = _campaign()
        resumed.run_stepwise(resume_from=states[interrupt_after - 1])
        assert _trace(resumed) == _trace(uninterrupted)

    @pytest.mark.parametrize("interrupt_after", [1, 5, 11])
    def test_resumed_run_records_its_rows_in_end_order(self, interrupt_after):
        # The profiler refuses a row that ends before the previous one; the
        # restored rows replay in order and the resumed run's follow them.
        states = _saved_states()
        resumed = _campaign()
        resumed.run_stepwise(resume_from=states[interrupt_after - 1])
        ends = [row.end for row in resumed.platform.profiler.resource_intervals]
        assert len(ends) > interrupt_after
        assert ends == sorted(ends)

    def test_rerun_in_one_process_records_the_same_trace(self):
        config = CampaignConfig(protocol="im-rp", seed=13, n_cycles=2, n_sequences=6)
        first, second = _campaign(config), _campaign(config)
        first.run()
        second.run()
        assert _trace(first) == _trace(second)

    @pytest.mark.parametrize(
        "protocol", ["im-rp", "cont-v", "im-rp-random", "cont-v-ranked"]
    )
    def test_no_two_tasks_of_a_campaign_share_a_name(self, monkeypatch, protocol):
        names = []
        init = Task.__init__

        def recording(task, description):
            names.append(description.name)
            init(task, description)

        monkeypatch.setattr(Task, "__init__", recording)
        config = CampaignConfig(protocol=protocol, seed=13, n_cycles=2, n_sequences=6)
        campaign = _campaign(config)
        campaign.run()
        assert len(set(names)) == len(names)
        # Each task ran once, so its name labels exactly one interval.
        intervals = campaign.platform.profiler.resource_intervals
        assert sorted(interval.task_id for interval in intervals) == sorted(names)


def _phase_log(monkeypatch):
    """Every ``record_phase(phase, start, end)`` made from now on, in order."""
    log = []
    record_phase = ExecutionProfiler.record_phase

    def logged(profiler, phase, start, end):
        log.append((phase, start, end))
        record_phase(profiler, phase, start, end)

    monkeypatch.setattr(ExecutionProfiler, "record_phase", logged)
    return log


def _summed(log):
    """The reference sum of a phase log: one addition per interval, in
    recording order."""
    totals = {}
    for phase, start, end in log:
        totals[phase] = totals.get(phase, 0.0) + (end - start)
    return totals


class TestPhaseTotals:
    """Running phase totals are the summed phase log, to the bit."""

    @pytest.mark.parametrize(
        "protocol", ["im-rp", "cont-v", "im-rp-random", "cont-v-ranked"]
    )
    def test_totals_equal_the_summed_log(self, monkeypatch, protocol):
        log = _phase_log(monkeypatch)
        config = CampaignConfig(protocol=protocol, seed=13, n_cycles=2, n_sequences=6)
        campaign = _campaign(config)
        campaign.run()
        assert len(log) > 1
        assert campaign.platform.profiler.phase_totals() == _summed(log)

    @pytest.mark.parametrize("interrupt_after", [1, 5, 11])
    def test_resumed_totals_equal_the_uninterrupted_summed_log(
        self, monkeypatch, interrupt_after
    ):
        log = _phase_log(monkeypatch)
        uninterrupted = _campaign()
        states = []
        uninterrupted.run_stepwise(
            on_state=lambda state: states.append(_revived(state))
        )
        reference = _summed(log)
        assert uninterrupted.platform.profiler.phase_totals() == reference
        resumed = _campaign()
        resumed.run_stepwise(resume_from=states[interrupt_after - 1])
        assert resumed.platform.profiler.phase_totals() == reference


def _full_snapshot(control):
    """Reference payload: every started pipeline encoded afresh, as a
    snapshot without reuse would build it."""
    profiler = control.platform.profiler
    return {
        "now": control.platform.now,
        "profiler": {
            "resource_intervals": profiler.resource_intervals,
            "phase_totals": profiler.phase_totals(),
        },
        "pipelines": {
            name: pipeline.snapshot()
            for name, pipeline in control._per_target_pipelines.items()
        },
    }


class TestIncrementalSnapshots:
    """Reused encodings give the same payloads, and no payload changes later."""

    @pytest.mark.parametrize("resume_after", [None, 5])
    @pytest.mark.parametrize("protocol", ["cont-v", "cont-v-ranked"])
    def test_payload_equals_full_encode_and_is_never_altered(
        self, protocol, resume_after, reference
    ):
        config = CampaignConfig(protocol=protocol, seed=7, n_cycles=3, n_sequences=5)
        resume_from = None
        if resume_after is not None:
            resume_from = _saved_states(config)[resume_after - 1]
        observed = []

        def check(state):
            payload = state.as_dict()["payload"]
            text = json.dumps(payload)
            assert text == json.dumps(_full_snapshot(state.runtime))
            observed.append((payload, text))

        result = _campaign(config).run_stepwise(
            resume_from=resume_from, on_state=check
        )
        assert _result_bytes(result) == reference(config)
        assert len(observed) == 12 - (resume_after or 0)
        for payload, text in observed:
            assert json.dumps(payload) == text

    def test_payload_holds_no_finished_flag(self):
        states = _saved_states()
        assert all("finished" not in state.payload for state in states)
        # The control derives the flag from its pipelines: restored at the
        # last boundary it is done without running a cycle; restored one
        # boundary earlier it runs that cycle first.
        campaign = _campaign()
        last = campaign.engine(states[-1])
        assert last.step_cycle() is True and last.n_cycles_completed == 12
        earlier = campaign.engine(states[-2])
        assert earlier.n_cycles_completed == 11
        assert earlier.step_cycle() is True and earlier.n_cycles_completed == 12


class TestSnapshotCost:
    """A snapshot encodes the work since the previous one, not the campaign."""

    @pytest.mark.parametrize("n_targets", [4, 12, 35])
    def test_each_pipeline_encoded_once_and_rows_shared(self, monkeypatch, n_targets):
        encoded = []
        encode_complex = pipeline_module.encode_complex

        def counting(*args):
            encoded.append(args)
            return encode_complex(*args)

        monkeypatch.setattr(pipeline_module, "encode_complex", counting)

        targets = expanded_pdz_set(n_targets=n_targets, seed=2025)
        config = CampaignConfig(protocol="cont-v", seed=7, n_cycles=4)
        states = []
        DesignCampaign(targets, config).run_stepwise(
            on_state=lambda state: states.append((state, state.as_dict()["payload"]))
        )

        steps = len(states)
        assert steps == 4 * n_targets
        # One complex per step: the pipeline that just ran a cycle.  A full
        # re-encode would take one per started pipeline per step.
        assert len(encoded) == steps
        # Seven stage tasks per cycle (cont-v never retries), each recording
        # one resource row.  A payload holds the profiler's own rows, encoding
        # none of them.
        rows = states[-1][0].runtime.platform.profiler.resource_intervals
        assert len(rows) == 7 * steps
        for step, (_, payload) in enumerate(states, start=1):
            payload_rows = payload["profiler"]["resource_intervals"]
            assert len(payload_rows) == 7 * step
            assert all(row is rows[index] for index, row in enumerate(payload_rows))


def _summed_cycles(control):
    """``n_cycles_completed`` as it was: a sum over every started pipeline."""
    return sum(
        len(pipeline.cycle_results)
        for pipeline in control._per_target_pipelines.values()
    )


def _scanned_target(control):
    """``_current_target()`` as it was: the first target, in sweep order,
    whose pipeline is not started or not finished."""
    for target in control._targets:
        pipeline = control._per_target_pipelines.get(target.name)
        if pipeline is None or not pipeline.is_finished:
            return target
    return None


class TestControlProgress:
    """The control's cycle counter and current-target cursor equal the scans
    they replaced, on fresh and restored runs."""

    @pytest.mark.parametrize("resume_after", [None, 1, 5, 11])
    @pytest.mark.parametrize("protocol", ["cont-v", "cont-v-ranked"])
    def test_counter_and_cursor_equal_the_old_scans(
        self, protocol, resume_after, reference
    ):
        config = dataclasses.replace(CONFIG, protocol=protocol)

        def check(control):
            assert control.n_cycles_completed == _summed_cycles(control)
            assert control._current_target() is _scanned_target(control)

        resume_from = None
        if resume_after is not None:
            resume_from = _saved_states(config)[resume_after - 1]
            # The restored engine, before its first step.
            restored = _campaign(config).engine(resume_from)
            assert restored.n_cycles_completed == resume_after
            check(restored)
        states = []

        def observe(state):
            states.append(state)
            check(state.runtime)

        result = _campaign(config).run_stepwise(
            resume_from=resume_from, on_state=observe
        )
        assert _result_bytes(result) == reference(config)
        assert [state.cycle for state in states] == list(
            range((resume_after or 0) + 1, 13)
        )
        assert states[-1].runtime._current_target() is None

    def test_restore_refuses_pipelines_out_of_sweep_order(self):
        states = _saved_states()
        # Boundary 5 holds NHERF3's finished pipeline and HTRA1's running one.
        payload = json.loads(json.dumps(states[4].as_dict()))
        first, second = list(payload["payload"]["pipelines"])
        skipped = json.loads(json.dumps(payload))
        del skipped["payload"]["pipelines"][first]
        unfinished = json.loads(json.dumps(payload))
        unfinished["payload"]["pipelines"][first] = (
            states[0].as_dict()["payload"]["pipelines"][first]
        )
        for edited in (skipped, unfinished):
            with pytest.raises(StoreError, match="does not restore"):
                _campaign().run_stepwise(resume_from=CampaignState.from_dict(edited))

    def test_restore_refuses_a_control_that_has_stepped(self):
        payload = _saved_states()[4].payload
        campaign = _campaign()
        stepped = campaign.engine(campaign._initial_state())
        stepped.step_cycle()
        restored = campaign.engine(CampaignState(
            protocol="cont-v", seed=7, cycle=5, payload=payload
        ))
        assert restored.n_cycles_completed == 5
        for control in (stepped, restored):
            with pytest.raises(CampaignError, match="before its first step"):
                control.restore(payload)


class TestCampaignStateCodec:
    def test_round_trip(self):
        state = CampaignState(
            protocol="cont-v",
            seed=4,
            cycle=3,
            cycles_total=12,
            done=False,
            payload={"k": [1.5, "x"]},
        )
        assert CampaignState.from_dict(state.as_dict()) == state

    def test_restorable_is_derived_from_the_payload(self):
        state = CampaignState(protocol="cont-v", seed=4, payload={"k": 1})
        assert state.restorable
        assert "restorable" not in state.as_dict()
        init = _campaign()._initial_state()
        assert init.payload is None and not init.restorable

    def test_runtime_never_serialised(self):
        state = CampaignState(protocol="cont-v", seed=0, runtime=object())
        assert "runtime" not in state.as_dict()

    def test_malformed_payload_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            CampaignState.from_dict({"protocol": "cont-v"})


class TestProtocolSteppingContract:
    @pytest.mark.parametrize("done", [False, True])
    def test_pilot_refuses_to_rebuild_its_execution_past_cycle_zero(self, done):
        config = CampaignConfig(protocol="im-rp", seed=7, n_cycles=2, n_sequences=4)
        campaign = _campaign(config)
        with pytest.raises(CampaignError, match="im-rp cannot rebuild its execution at cycle 3"):
            if done:
                campaign.engine(CampaignState(protocol="im-rp", seed=7, cycle=3, done=True))
            else:
                campaign.run_stepwise(
                    resume_from=CampaignState(
                        protocol="im-rp", seed=7, cycle=3, payload={}
                    )
                )
