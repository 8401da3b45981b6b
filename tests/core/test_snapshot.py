"""The cycle-boundary snapshot codecs: exact JSON round-trips and rejections.

Checkpoints travel as JSON text, so every codec is checked through
``json.dumps``/``json.loads`` rather than on the in-memory encoding.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.decision import AcceptancePolicy
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus
from repro.core.snapshot import (
    decode_complex,
    decode_cycle_result,
    decode_rng_state,
    decode_trajectory,
    encode_complex,
    encode_cycle_result,
    encode_rng_state,
    encode_trajectory,
    restore_profiler,
)
from repro.exceptions import CampaignError, PipelineError
from repro.hpc.profiling import ExecutionProfiler, ResourceInterval
from repro.hpc.resources import amarel_platform
from repro.protein.datasets import ALPHA_SYNUCLEIN_C10, make_pdz_target
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import Chain
from repro.runtime.sequential import SequentialRunner
from repro.runtime.task import Task


def _via_json(payload):
    return json.loads(json.dumps(payload))


def _designed(target, models):
    """The target's complex as a design cycle leaves it: a new receptor
    sequence and backbone quality on the target's atoms."""
    receptor = target.complex.receptor.sequence
    design = ProteinSequence(
        residues=receptor.residues[::-1], chain_id=receptor.chain_id, name="design.7"
    )
    return models.folding.predict(target.complex, target.landscape, design).structure


def _run(pipeline, fail_task=None):
    """Drive ``pipeline`` inline until it finishes; ``fail_task`` names the
    one task whose payload is not run and which fails instead."""
    description = pipeline.start()
    while description is not None:
        task = Task(description)
        if description.name == fail_task:
            task.exception = RuntimeError("injected failure")
        elif description.payload is not None:
            task.result = description.payload()
        description = pipeline.advance(task).task
    return pipeline


#: Adaptive, and no design improves enough to be accepted after cycle 0.
NOTHING_IMPROVES = AcceptancePolicy(min_delta=1e9)

#: ``(config, failing task, status, trajectories only the snapshot holds)``
#: for a pipeline named ``p.round``.
FINISHED_PIPELINES = {
    "completed": (
        PipelineConfig(n_cycles=2, n_sequences=4, adaptive=False, random_selection=True),
        None,
        PipelineStatus.COMPLETED,
        0,
    ),
    "terminated": (
        PipelineConfig(
            n_cycles=3, n_sequences=4, max_retries=2, acceptance=NOTHING_IMPROVES
        ),
        None,
        PipelineStatus.TERMINATED,
        0,
    ),
    # Cycle 1 rejects its first candidate, then the retry's MSA task fails:
    # the rejected candidate's trajectory is in no cycle result.
    "failed-after-a-rejected-retry": (
        PipelineConfig(
            n_cycles=3, n_sequences=4, max_retries=3, acceptance=NOTHING_IMPROVES
        ),
        "p.round.c1.r1.af_msa",
        PipelineStatus.FAILED,
        1,
    ),
}


@pytest.fixture(scope="module")
def control_record(four_targets):
    """The merged CONT-V record of a small run: cycles with trajectories."""
    config = CampaignConfig(protocol="cont-v", seed=7, n_cycles=2, n_sequences=4)
    return DesignCampaign(four_targets, config).run().pipelines[0]


class TestRoundTrips:
    def test_complex_keeps_coordinates_exactly(self, target, models):
        structure = _designed(target, models)
        assert structure.receptor.sequence != target.complex.receptor.sequence
        encoded = _via_json(encode_complex(structure, target.complex))
        decoded = decode_complex(encoded, target.complex)
        assert decoded == structure
        # The chains' coordinates are the target's own arrays, not copies.
        assert decoded.receptor.coordinates is target.complex.receptor.coordinates
        assert decoded.peptide is target.complex.peptide
        assert decoded.designable_positions == target.complex.designable_positions
        assert encode_complex(decoded, target.complex) == encoded

    def test_complex_with_equal_copied_coordinates_decodes_onto_the_targets(
        self, target, models
    ):
        structure = _designed(target, models)
        receptor = structure.receptor
        copied = replace(
            structure, receptor=Chain(receptor.sequence, receptor.coordinates.copy())
        )
        decoded = decode_complex(
            _via_json(encode_complex(copied, target.complex)), target.complex
        )
        assert decoded.receptor.coordinates is target.complex.receptor.coordinates
        assert decoded == structure

    def test_trajectory(self, control_record):
        trajectory = control_record.trajectories[0]
        assert decode_trajectory(_via_json(encode_trajectory(trajectory))) == trajectory

    def test_cycle_result(self, control_record):
        cycle = control_record.cycles[-1]
        assert cycle.trajectories
        assert decode_cycle_result(_via_json(encode_cycle_result(cycle))) == cycle

    def test_profiler_rows_and_totals_replay_in_order(self):
        profiler = ExecutionProfiler(amarel_platform(1))
        # Rows are recorded in end order, as tasks end.
        profiler.record_resource_interval(
            ResourceInterval("t.2", "node0", (3, 1), (0,), 0.1, 1.0 / 3.0)
        )
        profiler.record_resource_interval(
            ResourceInterval("t.1", "node0", (0,), (), 0.0, 2.5)
        )
        profiler.record_phase("running", 0.1, 2.5)
        profiler.record_phase("bootstrap", 0.0, 0.1)
        profiler.record_phase("running", 1.0 / 3.0, 0.7)
        payload = {
            "resource_intervals": profiler.resource_intervals,
            "phase_totals": profiler.phase_totals(),
        }
        restored = ExecutionProfiler(amarel_platform(1))
        restore_profiler(restored, _via_json(payload))
        assert restored.resource_intervals == profiler.resource_intervals
        assert all(
            isinstance(row.cpu_core_ids, tuple) and isinstance(row.gpu_ids, tuple)
            for row in restored.resource_intervals
        )
        assert restored.phase_totals() == profiler.phase_totals()
        # Recording continues from the restored totals as from the live ones.
        for copy in (profiler, restored):
            copy.record_phase("running", 0.7, 2.9)
        assert restored.phase_totals() == profiler.phase_totals()

    def test_resource_row_is_its_own_encoding(self):
        row = ResourceInterval("t.2", "node0", (3, 1), (0,), 0.1, 2.5)
        assert json.dumps(row) == json.dumps(["t.2", "node0", [3, 1], [0], 0.1, 2.5])
        assert json.dumps(row) == '["t.2", "node0", [3, 1], [0], 0.1, 2.5]'

    @pytest.mark.parametrize("kind", list(FINISHED_PIPELINES))
    def test_finished_pipeline(self, kind, target, models):
        config, fail_task, status, tail = FINISHED_PIPELINES[kind]
        pipeline = _run(Pipeline("p.round", target, models, config), fail_task)
        assert pipeline.status is status
        payload = _via_json(pipeline.snapshot())
        # Only the trajectories no cycle result holds are written.
        assert len(payload["trajectories"]) == tail
        restored = Pipeline.restore_snapshot(payload, target, models, config)
        assert restored.status is status
        assert restored.cycle_results == pipeline.cycle_results
        assert restored.trajectories == pipeline.trajectories
        assert restored.latest_metrics == pipeline.latest_metrics
        assert restored.current_complex == pipeline.current_complex
        assert (
            restored.current_complex.receptor.coordinates
            is target.complex.receptor.coordinates
        )
        assert restored.snapshot() == pipeline.snapshot()
        # As in a live pipeline, the trajectory list shares the cycle
        # results' objects.
        held = [t for cycle in restored.cycle_results for t in cycle.trajectories]
        assert len(restored.trajectories) == len(held) + tail
        assert all(a is b for a, b in zip(restored.trajectories, held))

    def test_restored_pcg64_state_continues_the_same_draws(self):
        rng = np.random.default_rng(5)
        rng.random(3)
        state = _via_json(encode_rng_state(rng))
        expected = rng.random(4)
        restored = np.random.default_rng(0)
        decode_rng_state(restored, state)
        assert np.array_equal(restored.random(4), expected)


class TestPayloadShape:
    def test_contv_payload_holds_no_coordinates_and_each_trajectory_once(
        self, four_targets
    ):
        config = CampaignConfig(protocol="cont-v", seed=7, n_cycles=2, n_sequences=4)
        payloads = []
        DesignCampaign(four_targets, config).run_stepwise(
            on_state=lambda state: payloads.append(state.as_dict()["payload"])
        )
        finished = 0
        for payload in payloads:
            assert '"coordinates"' not in json.dumps(payload)
            for pipeline in payload["pipelines"].values():
                assert set(pipeline["complex"]) == {"receptor", "backbone_quality"}
                if pipeline["status"] != "RUNNING":
                    finished += 1
                    assert pipeline["trajectories"] == []
        assert finished > 0


class TestRejections:
    @pytest.mark.parametrize("chain", ["receptor", "peptide"])
    def test_complex_whose_atoms_are_not_the_targets(self, chain, target, models):
        structure = _designed(target, models)
        moved = getattr(structure, chain)
        structure = replace(
            structure, **{chain: Chain(moved.sequence, moved.coordinates + 0.5)}
        )
        with pytest.raises(PipelineError, match="does not keep the atoms"):
            encode_complex(structure, target.complex)

    def test_rng_state_for_another_bit_generator(self):
        mersenne = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(CampaignError, match="MT19937"):
            decode_rng_state(np.random.default_rng(0), encode_rng_state(mersenne))

    def test_pipeline_snapshot_mid_cycle(self, target, models, durations, platform):
        pipeline = Pipeline("p.mid", target, models, PipelineConfig(n_sequences=4))
        runner = SequentialRunner(platform, durations)
        pipeline.advance(runner.run_task(pipeline.start()))
        assert not pipeline.at_cycle_boundary
        with pytest.raises(PipelineError, match="mid-cycle"):
            pipeline.snapshot()

    def test_pipeline_restore_for_the_wrong_target(self, target, models):
        config = PipelineConfig(n_sequences=4)
        payload = Pipeline("p.0", target, models, config).snapshot()
        other = make_pdz_target(
            "PSD95-PDZ3", peptide_residues=ALPHA_SYNUCLEIN_C10, seed=11
        )
        assert other.name != target.name
        with pytest.raises(PipelineError, match="snapshot is for target"):
            Pipeline.restore_snapshot(payload, other, models, config)
