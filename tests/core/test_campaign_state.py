"""The cycle-granular campaign state machine: step equivalence and resume.

The refactor's core contract: ``execute`` ≡ ``init_state → step* →
finalize``, and a campaign suspended at any cycle boundary — its state
round-tripped through JSON, as a cross-process resume would — finishes
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.core import control as control_module
from repro.core import pipeline as pipeline_module
from repro.core.campaign import CampaignConfig, CampaignState, DesignCampaign
from repro.core.protocols import get_protocol
from repro.core.snapshot import encode_phase_interval, encode_resource_interval
from repro.exceptions import CampaignError
from repro.protein.datasets import expanded_pdz_set, named_pdz_targets

CONFIG = CampaignConfig(protocol="cont-v", seed=7, n_cycles=3, n_sequences=5)


def _campaign(config=CONFIG):
    return DesignCampaign(named_pdz_targets(seed=11), config)


def _result_bytes(result):
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial result, per protocol config."""
    cache = {}

    def build(config):
        key = (config.protocol, config.seed, config.n_cycles, config.n_sequences)
        if key not in cache:
            cache[key] = _result_bytes(_campaign(config).run())
        return cache[key]

    return build


class TestStepLoopEquivalence:
    @pytest.mark.parametrize(
        "protocol", ["im-rp", "cont-v", "im-rp-random", "cont-v-ranked"]
    )
    def test_manual_step_loop_equals_run(self, protocol, reference):
        config = CampaignConfig(
            protocol=protocol, seed=7, n_cycles=2, n_sequences=4
        )
        campaign = _campaign(config)
        state = campaign.init_state()
        steps = 0
        while not state.done:
            state = campaign.step(state)
            steps += 1
        result = campaign.finalize_state(state)
        assert _result_bytes(result) == reference(config)
        if protocol.startswith("cont-v"):
            # One step per (target, cycle): 4 targets x 2 cycles.
            assert steps == 8
            assert state.cycle == 8 and state.cycles_total == 8
        else:
            # The pilot simulation has no quiescent cycle boundary: one step.
            assert steps == 1
            assert state.cycle >= 8  # roots + adaptively spawned sub-pipelines

    def test_sequential_states_are_restorable_checkpoints(self):
        campaign = _campaign()
        state = campaign.step(campaign.init_state())
        assert state.restorable and state.payload is not None
        json.dumps(state.as_dict())  # JSON-able by construction

    def test_pilot_terminal_state_is_not_restorable(self):
        config = CampaignConfig(protocol="im-rp", seed=7, n_cycles=2, n_sequences=4)
        campaign = _campaign(config)
        state = campaign.step(campaign.init_state())
        assert state.done and not state.restorable

    def test_pilot_reports_progress_states_mid_step(self):
        config = CampaignConfig(protocol="im-rp", seed=7, n_cycles=2, n_sequences=4)
        seen = []
        _campaign(config).run_stepwise(on_state=seen.append)
        progress = [s for s in seen if not s.done]
        assert progress, "pilot runs must report per-cycle progress"
        assert [s.cycle for s in progress] == sorted(s.cycle for s in progress)
        assert all(not s.restorable for s in progress)
        assert seen[-1].done


class TestResumeDeterminism:
    @pytest.mark.parametrize("interrupt_after", [1, 5, 11])
    def test_resume_from_json_roundtrip_is_byte_identical(
        self, interrupt_after, reference
    ):
        campaign = _campaign()
        state = campaign.init_state()
        for _ in range(interrupt_after):
            state = campaign.step(state)
        assert not state.done
        # Cross-process simulation: the state travels as JSON text.
        revived = CampaignState.from_dict(json.loads(json.dumps(state.as_dict())))
        resumed = _campaign().run_stepwise(resume_from=revived)
        assert _result_bytes(resumed) == reference(CONFIG)

    def test_resume_skips_completed_cycles(self):
        campaign = _campaign()
        state = campaign.init_state()
        for _ in range(5):
            state = campaign.step(state)
        revived = CampaignState.from_dict(json.loads(json.dumps(state.as_dict())))
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
        campaign = _campaign(config)
        state = campaign.init_state()
        for _ in range(3):
            state = campaign.step(state)
        revived = CampaignState.from_dict(json.loads(json.dumps(state.as_dict())))
        resumed = _campaign(config).run_stepwise(resume_from=revived)
        assert _result_bytes(resumed) == expected

    def test_resume_rejects_mismatched_identity(self):
        state = _campaign().step(_campaign().init_state())
        other = CampaignConfig(protocol="cont-v", seed=8, n_cycles=3, n_sequences=5)
        with pytest.raises(CampaignError, match="seed"):
            _campaign(other).run_stepwise(resume_from=state)

    def test_resume_rejects_progress_only_state(self):
        progress = CampaignState(
            protocol="cont-v", seed=7, cycle=2, restorable=False, payload=None
        )
        with pytest.raises(CampaignError, match="not a restorable"):
            _campaign().run_stepwise(resume_from=progress)

    @pytest.mark.parametrize("protocol", ["cont-v", "im-rp"])
    def test_resume_rejects_done_state_with_nothing_to_finalize(self, protocol):
        config = CampaignConfig(protocol=protocol, seed=7, n_cycles=3, n_sequences=5)
        done = CampaignState(
            protocol=protocol, seed=7, cycle=12, cycles_total=12, done=True
        )
        with pytest.raises(CampaignError, match="not a restorable"):
            _campaign(config).run_stepwise(resume_from=done)


def _full_snapshot(control):
    """Reference payload: every started pipeline and every profiler interval
    encoded afresh, as a snapshot without reuse would build it."""
    profiler = control.platform.profiler
    return {
        "now": control.platform.now,
        "profiler": {
            "resource_intervals": [
                encode_resource_interval(interval)
                for interval in profiler.resource_intervals
            ],
            "phase_intervals": [
                encode_phase_interval(interval)
                for interval in profiler.phase_intervals
            ],
        },
        "finished": control.finished,
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
            campaign = _campaign(config)
            state = campaign.init_state()
            for _ in range(resume_after):
                state = campaign.step(state)
            resume_from = CampaignState.from_dict(
                json.loads(json.dumps(state.as_dict()))
            )
        observed = []

        def check(state):
            text = json.dumps(state.payload)
            assert text == json.dumps(_full_snapshot(state.runtime))
            observed.append((state.payload, text))

        result = _campaign(config).run_stepwise(
            resume_from=resume_from, on_state=check
        )
        assert _result_bytes(result) == reference(config)
        assert len(observed) == 12 - (resume_after or 0)
        for payload, text in observed:
            assert json.dumps(payload) == text


class TestSnapshotCost:
    """A snapshot encodes the work since the previous one, not the campaign."""

    @pytest.mark.parametrize("n_targets", [4, 12, 35])
    def test_each_pipeline_and_interval_encoded_once(self, monkeypatch, n_targets):
        counts = {}

        def count_calls(module, name):
            original = getattr(module, name)

            def counting(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        count_calls(pipeline_module, "encode_complex")
        count_calls(control_module, "encode_resource_interval")
        count_calls(control_module, "encode_phase_interval")

        targets = expanded_pdz_set(n_targets=n_targets, seed=2025)
        config = CampaignConfig(protocol="cont-v", seed=7, n_cycles=4)
        states = []
        DesignCampaign(targets, config).run_stepwise(on_state=states.append)

        steps = len(states)
        assert steps == 4 * n_targets
        # One complex per step: the pipeline that just ran a cycle.  A full
        # re-encode would take one per started pipeline per step.
        assert counts["encode_complex"] == steps
        # Seven stage tasks per cycle (cont-v never retries), each recording
        # one resource and one phase interval, encoded once per run.
        profiler = states[-1].runtime.platform.profiler
        assert len(profiler.resource_intervals) == 7 * steps
        assert len(profiler.phase_intervals) == 7 * steps
        assert counts["encode_resource_interval"] == 7 * steps
        assert counts["encode_phase_interval"] == 7 * steps


class TestCampaignStateCodec:
    def test_round_trip(self):
        state = CampaignState(
            protocol="cont-v",
            seed=4,
            cycle=3,
            cycles_total=12,
            done=False,
            restorable=True,
            payload={"k": [1.5, "x"]},
        )
        assert CampaignState.from_dict(state.as_dict()) == state

    def test_runtime_never_serialised(self):
        state = CampaignState(protocol="cont-v", seed=0, runtime=object())
        assert "runtime" not in state.as_dict()

    def test_malformed_payload_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            CampaignState.from_dict({"protocol": "cont-v"})


class TestProtocolSteppingContract:
    def test_finalize_refuses_unfinished_state(self):
        protocol = get_protocol("cont-v")
        campaign = _campaign()
        state = campaign.step(campaign.init_state())
        with pytest.raises(CampaignError, match="unfinished"):
            protocol.finalize(campaign._protocol_context(), state)

    def test_execute_api_unchanged(self):
        """The registry entry point still runs a whole campaign in one call."""
        protocol = get_protocol("cont-v")
        campaign = _campaign()
        outcome = protocol.execute(campaign._protocol_context())
        assert outcome.records and outcome.platform is not None
