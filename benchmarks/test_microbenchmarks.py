"""Micro-benchmarks of the substrates.

These use pytest-benchmark's normal statistics (many rounds) to track the
performance of the hot paths the campaign simulation relies on: the event
loop, the placement scheduler, the surrogate models and the ranking stage,
the keyed RNG streams and the sampler they draw MPNN's rows with, and a
small end-to-end pipeline.  Each RNG primitive, the ranking and one scalar
fold are checked against their references outside the timed call.  They guard against performance regressions that would make the
paper-scale experiments (Fig 3: 70 targets, hundreds of trajectories)
impractically slow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, PipelineConfig, StageModels
from repro.hpc.allocation import NodeAllocator
from repro.hpc.events import EventLoop
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.hpc.scheduler import PlacementScheduler
from repro.protein.datasets import make_pdz_target
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.protein.sequence import ScoredSequence
from repro.runtime.task import Task
from repro.utils.rng import KeyedStreams, sample_without_replacement, spawn_rng


class _Queued(NamedTuple):
    """A schedulable item: the scheduler reads only a name and a request."""

    name: str
    request: ResourceRequest


@pytest.fixture(scope="module")
def micro_target():
    return make_pdz_target("NHERF3", seed=99)


def test_event_loop_throughput(benchmark):
    def run_10k_events():
        loop = EventLoop()
        counter = [0]

        def tick():
            counter[0] += 1

        for index in range(10_000):
            loop.schedule(float(index % 100), tick)
        loop.run()
        return counter[0]

    assert benchmark(run_10k_events) == 10_000


def test_scheduler_placement_throughput(benchmark):
    def place_500_tasks():
        allocator = NodeAllocator(amarel_platform(4))
        scheduler = PlacementScheduler(allocator, 0)
        placed = 0
        for index in range(500):
            scheduler.submit(_Queued(f"task-{index}", ResourceRequest(cpu_cores=1)))
        # Every batch's allocations are released immediately below, so the
        # platform always has capacity; an empty batch therefore means no
        # forward progress is possible — break and let the count assertion
        # fail loudly instead of spinning or double-releasing.
        while scheduler.queue_length:
            batch = scheduler.try_place()
            if not batch:
                break
            placed += len(batch)
            for _, allocation in batch:
                allocator.release(allocation)
        return placed

    assert benchmark(place_500_tasks) == 500


def test_mpnn_generation_speed(benchmark, micro_target):
    mpnn = SurrogateProteinMPNN(seed=1)
    result = benchmark(
        lambda: mpnn.generate(micro_target.complex, micro_target.landscape, n_sequences=10)
    )
    assert len(result) == 10


def test_folding_prediction_speed(benchmark, micro_target):
    folding = SurrogateAlphaFold(seed=1)
    result = benchmark(
        lambda: folding.predict(micro_target.complex, micro_target.landscape)
    )
    assert 0.0 <= result.fitness <= 1.0


def test_folding_predict_design_speed(benchmark, micro_target):
    """One inference task's fold: an MPNN design on its own stream."""
    landscape = micro_target.landscape
    target_complex = micro_target.complex
    (design,) = SurrogateProteinMPNN(seed=5).generate(
        target_complex, landscape, n_sequences=1, stream=("bench",)
    )
    sequence = design.sequence
    stream = ("p.0001", 2, 0)
    folding = SurrogateAlphaFold(seed=5)

    # The reference: pTM through np.clip and argmax, the refined complex
    # through dataclasses.replace.
    fitness = landscape.fitness(sequence)
    rng = spawn_rng(5, "folding", target_complex.name, sequence.residues, *stream)
    ptm_draws = np.clip(0.35 + 0.60 * fitness + rng.normal(scale=0.035, size=5), 0.01, 0.99)
    plddt = min(max(55.0 + 42.0 * fitness + float(rng.normal(scale=3.0)), 30.0), 98.5)
    pae = min(max(22.0 - 16.0 * fitness + float(rng.normal(scale=1.4)), 1.5), 31.5)
    metrics = QualityMetrics(
        plddt=plddt, ptm=float(ptm_draws[int(np.argmax(ptm_draws))]), interchain_pae=pae
    )
    refined = replace(
        target_complex,
        receptor=target_complex.receptor.with_sequence(sequence),
        backbone_quality=min(max(fitness, 0.0), 1.0),
    )
    result = folding.predict(target_complex, landscape, sequence, stream=stream)
    assert (result.metrics, result.structure, result.fitness) == (metrics, refined, fitness)

    result = benchmark(
        lambda: folding.predict(target_complex, landscape, sequence, stream=stream)
    )
    assert result.metrics == metrics


def test_rank_speed(benchmark, micro_target):
    """One ranking task: ten designs by decreasing log-likelihood."""
    designs = SurrogateProteinMPNN(seed=6).generate(
        micro_target.complex, micro_target.landscape, n_sequences=10, stream=("bench",)
    )
    order = np.argsort(-np.array([d.log_likelihood for d in designs]), kind="stable")
    reference = [designs[int(index)] for index in order]
    assert ScoredSequence.rank(designs) == reference

    ranked = benchmark(lambda: ScoredSequence.rank(designs))
    assert ranked == reference


def test_landscape_fitness_speed(benchmark, micro_target):
    sequence = micro_target.complex.receptor.sequence
    value = benchmark(lambda: micro_target.landscape.fitness(sequence))
    assert 0.0 <= value <= 1.0


def test_landscape_fitness_batch_speed(benchmark, micro_target):
    """64 sequences through one fitness_batch call (vs 64 scalar calls)."""
    landscape = micro_target.landscape
    mpnn = SurrogateProteinMPNN(seed=3)
    sequences = [
        scored.sequence
        for scored in mpnn.generate(
            micro_target.complex, landscape, n_sequences=64, stream=("bench",)
        )
    ]
    encoded = np.stack([sequence.encode() for sequence in sequences])

    values = benchmark(lambda: landscape.fitness_batch(encoded))
    assert values.shape == (64,)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_folding_predict_batch_speed(benchmark, micro_target):
    """One GA-generation-sized population through predict_batch."""
    landscape = micro_target.landscape
    mpnn = SurrogateProteinMPNN(seed=4)
    folding = SurrogateAlphaFold(seed=4)
    sequences = [
        scored.sequence
        for scored in mpnn.generate(
            micro_target.complex, landscape, n_sequences=24, stream=("bench",)
        )
    ]
    streams = [(index,) for index in range(len(sequences))]

    results = benchmark(
        lambda: folding.predict_batch(
            micro_target.complex, landscape, sequences, streams=streams
        )
    )
    assert len(results) == 24


def test_scoring_first_score_speed(benchmark, micro_target):
    """The first score of a geometry: a fresh ``ScoringFunction`` measures the
    receptor/peptide distances, contact pairs, clashes and compactness."""
    breakdown = benchmark(lambda: ScoringFunction().score(micro_target.complex))
    assert np.isfinite(breakdown.total)


def test_scoring_memo_hit_speed(benchmark, micro_target):
    """A later score of the same geometry: a gather over its contact pairs."""
    scoring = ScoringFunction()
    scoring.score(micro_target.complex)
    breakdown = benchmark(lambda: scoring.score(micro_target.complex))
    assert np.isfinite(breakdown.total)


def test_keyed_stream_speed(benchmark):
    """Reset a model's reused generator to one task's jitter stream."""
    streams = KeyedStreams(2025, "duration")
    name = "p.0001.c0.mpnn_generate"
    reference = spawn_rng(2025, "duration", name).bit_generator.state
    assert streams.stream(name).bit_generator.state == reference

    rng = benchmark(lambda: streams.stream(name))
    assert rng.bit_generator.state == reference


def test_sample_without_replacement_speed(benchmark):
    """One MPNN design's pick: 2 of 12 designable rows."""
    rng = np.random.default_rng(7)
    reference = np.random.default_rng(7)
    for _ in range(3):
        picked = sample_without_replacement(rng, 12, 2)
        assert picked == reference.choice(12, size=2, replace=False).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state

    picked = benchmark(lambda: sample_without_replacement(rng, 12, 2))
    assert len(set(picked)) == 2 and all(0 <= row < 12 for row in picked)


def test_single_pipeline_inline_execution(benchmark, micro_target):
    """One full design pipeline (2 cycles) executed synchronously."""
    models = StageModels()

    def run_pipeline():
        pipeline = Pipeline(
            "bench.pipeline",
            micro_target,
            models,
            PipelineConfig(n_cycles=2, n_sequences=6),
        )
        description = pipeline.start()
        while description is not None:
            task = Task(description)
            task.result = description.payload() if description.payload else None
            description = pipeline.advance(task).task
        return pipeline

    pipeline = benchmark(run_pipeline)
    assert pipeline.status.value == "COMPLETED"
