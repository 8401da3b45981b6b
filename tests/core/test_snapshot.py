"""The cycle-boundary snapshot codecs: exact JSON round-trips and rejections.

Checkpoints travel as JSON text, so every codec is checked through
``json.dumps``/``json.loads`` rather than on the in-memory encoding.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.pipeline import Pipeline, PipelineConfig
from repro.core.snapshot import (
    decode_complex,
    decode_cycle_result,
    decode_rng_state,
    decode_trajectory,
    encode_complex,
    encode_cycle_result,
    encode_phase_interval,
    encode_resource_interval,
    encode_rng_state,
    encode_trajectory,
    restore_profiler,
)
from repro.exceptions import CampaignError, PipelineError
from repro.hpc.profiling import ExecutionProfiler, ResourceInterval
from repro.hpc.resources import amarel_platform
from repro.protein.datasets import ALPHA_SYNUCLEIN_C10, make_pdz_target
from repro.runtime.sequential import SequentialRunner


def _via_json(payload):
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def control_record(four_targets):
    """The merged CONT-V record of a small run: cycles with trajectories."""
    config = CampaignConfig(protocol="cont-v", seed=7, n_cycles=2, n_sequences=4)
    campaign = DesignCampaign(four_targets, config)
    state = campaign.init_state()
    while not state.done:
        state = campaign.step(state)
    return state.runtime.records()[0]


class TestRoundTrips:
    def test_complex_keeps_coordinates_exactly(self, target):
        structure = target.complex
        decoded = decode_complex(_via_json(encode_complex(structure)))
        for original, restored in (
            (structure.receptor, decoded.receptor),
            (structure.peptide, decoded.peptide),
        ):
            assert restored.sequence == original.sequence
            assert restored.coordinates.dtype == original.coordinates.dtype
            assert np.array_equal(restored.coordinates, original.coordinates)
        assert decoded.designable_positions == structure.designable_positions
        assert encode_complex(decoded) == encode_complex(structure)

    def test_trajectory(self, control_record):
        trajectory = control_record.trajectories[0]
        assert decode_trajectory(_via_json(encode_trajectory(trajectory))) == trajectory

    def test_cycle_result(self, control_record):
        cycle = control_record.cycles[-1]
        assert cycle.trajectories
        assert decode_cycle_result(_via_json(encode_cycle_result(cycle))) == cycle

    def test_profiler_intervals_replay_in_order(self):
        profiler = ExecutionProfiler(amarel_platform(1))
        profiler.record_resource_interval(
            ResourceInterval("t.2", "node0", (3, 1), (0,), 0.1, 2.5)
        )
        profiler.record_resource_interval(
            ResourceInterval("t.1", "node0", (0,), (), 0.0, 1.0 / 3.0)
        )
        profiler.record_phase("t.2", "running", 0.1, 2.5)
        profiler.record_phase("pilot.0", "bootstrap", 0.0, 0.1)
        payload = {
            "resource_intervals": [
                encode_resource_interval(interval)
                for interval in profiler.resource_intervals
            ],
            "phase_intervals": [
                encode_phase_interval(interval)
                for interval in profiler.phase_intervals
            ],
        }
        restored = ExecutionProfiler(amarel_platform(1))
        restore_profiler(restored, _via_json(payload))
        assert restored.resource_intervals == profiler.resource_intervals
        assert restored.phase_intervals == profiler.phase_intervals

    def test_restored_pcg64_state_continues_the_same_draws(self):
        rng = np.random.default_rng(5)
        rng.random(3)
        state = _via_json(encode_rng_state(rng))
        expected = rng.random(4)
        restored = np.random.default_rng(0)
        decode_rng_state(restored, state)
        assert np.array_equal(restored.random(4), expected)


class TestRejections:
    def test_rng_state_for_another_bit_generator(self):
        mersenne = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(CampaignError, match="MT19937"):
            decode_rng_state(np.random.default_rng(0), encode_rng_state(mersenne))

    def test_pipeline_snapshot_mid_cycle(self, target, factory, durations, platform):
        pipeline = Pipeline("p.mid", target, factory, PipelineConfig(n_sequences=4))
        runner = SequentialRunner(platform, durations)
        (generation,) = pipeline.start()
        pipeline.advance(runner.run_task(generation))
        assert not pipeline.at_cycle_boundary
        with pytest.raises(PipelineError, match="mid-cycle"):
            pipeline.snapshot()

    def test_pipeline_restore_for_the_wrong_target(self, target, factory):
        config = PipelineConfig(n_sequences=4)
        payload = Pipeline("p.0", target, factory, config).snapshot()
        other = make_pdz_target(
            "PSD95-PDZ3", peptide_residues=ALPHA_SYNUCLEIN_C10, seed=11
        )
        assert other.name != target.name
        with pytest.raises(PipelineError, match="snapshot is for target"):
            Pipeline.restore_snapshot(payload, other, factory, config)
