"""Tests for the fitness landscape and the ProteinMPNN / AlphaFold surrogates."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ProteinError, SequenceError
from repro.protein.alphabet import AMINO_ACIDS
from repro.protein.datasets import make_pdz_target
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.landscape import FitnessLandscape
from repro.protein.metrics import QualityMetrics
from repro.protein.mpnn import MPNNConfig, SurrogateProteinMPNN
from repro.protein.mutation import point_mutations
from repro.protein.sequence import ProteinSequence
from repro.utils.rng import MAX_SAMPLE_POPULATION, spawn_rng


def _random_sequence(length, rng):
    """A uniformly random receptor sequence of ``length`` residues."""
    indices = rng.integers(0, len(AMINO_ACIDS), size=length)
    return ProteinSequence(
        residues="".join(AMINO_ACIDS[int(i)] for i in indices), chain_id="A"
    )


def _reference_fold(seed, msa_mode, complex_structure, landscape, sequence, stream):
    """``predict``'s metrics, the noise drawn from ``spawn_rng``: the reference."""
    factor = 2.5 if msa_mode == "single_sequence" else 1.0
    fitness = landscape.fitness(sequence)
    rng = spawn_rng(seed, "folding", complex_structure.name, sequence.residues, *stream)
    ptm_draws = np.clip(
        0.35 + 0.60 * fitness + rng.normal(scale=0.035 * factor, size=5), 0.01, 0.99
    )
    ptm = float(ptm_draws[int(np.argmax(ptm_draws))])
    plddt = min(max(55.0 + 42.0 * fitness + float(rng.normal(scale=3.0 * factor)), 30.0), 98.5)
    pae = min(max(22.0 - 16.0 * fitness + float(rng.normal(scale=1.4 * factor)), 1.5), 31.5)
    return QualityMetrics(plddt=plddt, ptm=ptm, interchain_pae=pae), fitness


def _reference_result_from_fitness(model, complex_structure, sequence, fitness, stream):
    """``SurrogateAlphaFold._result_from_fitness`` as it was: ``np.clip`` and
    ``argmax`` over the pTM draws, and the refined complex through
    ``dataclasses.replace`` and ``Chain.with_sequence``."""
    rng = model._streams.stream(complex_structure.name, sequence.residues, *stream)
    factor = model._noise_factor
    ptm_draws = np.clip(
        0.35 + 0.60 * fitness + rng.normal(scale=0.035 * factor, size=5), 0.01, 0.99
    )
    ptm = float(ptm_draws[int(np.argmax(ptm_draws))])
    plddt = min(max(55.0 + 42.0 * fitness + float(rng.normal(scale=3.0 * factor)), 30.0), 98.5)
    pae = min(max(22.0 - 16.0 * fitness + float(rng.normal(scale=1.4 * factor)), 1.5), 31.5)
    receptor_chain_id = complex_structure.receptor.chain_id
    if sequence.chain_id != receptor_chain_id:
        sequence = ProteinSequence(sequence.residues, receptor_chain_id, sequence.name)
    refined = replace(
        complex_structure,
        receptor=complex_structure.receptor.with_sequence(sequence),
        backbone_quality=min(max(float(fitness), 0.0), 1.0),
    )
    return QualityMetrics(plddt=plddt, ptm=ptm, interchain_pae=pae), refined


def _differing_positions(a, b):
    return [
        index
        for index, (left, right) in enumerate(zip(a.residues, b.residues))
        if left != right
    ]


@pytest.fixture(scope="module")
def pdz_target():
    return make_pdz_target("HTRA1", seed=23)


class TestFitnessLandscape:
    def test_fitness_bounded(self, pdz_target):
        landscape = pdz_target.landscape
        rng = spawn_rng(1, "probe")
        for _ in range(30):
            sequence = _random_sequence(landscape.receptor_length, rng)
            assert 0.0 <= landscape.fitness(sequence) <= 1.0

    def test_native_fitness_leaves_headroom(self, pdz_target):
        landscape = pdz_target.landscape
        native = landscape.fitness(landscape.native_sequence)
        # Best of 300 random draws at the designable positions.
        rng = spawn_rng(landscape.seed, "landscape-probe")
        positions = list(landscape.designable_positions)
        candidates = np.tile(landscape.native_sequence.encode(), (300, 1))
        candidates[:, positions] = rng.integers(
            0, len(AMINO_ACIDS), size=(300, len(positions))
        )
        best = max(native, float(landscape.fitness_batch(candidates).max()))
        assert 0.05 < native < 0.6
        assert best > native + 0.1

    def test_deterministic_for_same_seed(self, pdz_target):
        landscape = pdz_target.landscape
        other = FitnessLandscape(
            target_name=landscape.target_name,
            receptor_length=landscape.receptor_length,
            designable_positions=landscape.designable_positions,
            native_sequence=landscape.native_sequence,
            seed=landscape.seed,
        )
        sequence = landscape.native_sequence
        assert landscape.fitness(sequence) == pytest.approx(other.fitness(sequence))

    def test_different_seed_changes_landscape(self, pdz_target):
        landscape = pdz_target.landscape
        other = FitnessLandscape(
            target_name=landscape.target_name,
            receptor_length=landscape.receptor_length,
            designable_positions=landscape.designable_positions,
            native_sequence=landscape.native_sequence,
            seed=landscape.seed + 1,
        )
        rng = spawn_rng(2, "probe")
        sequence = _random_sequence(landscape.receptor_length, rng)
        assert landscape.fitness(sequence) != pytest.approx(other.fitness(sequence))

    def test_mutation_outside_designable_positions_is_neutral(self, pdz_target):
        landscape = pdz_target.landscape
        native = landscape.native_sequence
        outside = next(
            position
            for position in range(landscape.receptor_length)
            if position not in landscape.designable_positions
        )
        current = native[outside]
        replacement = "W" if current != "W" else "Y"
        mutated = native.with_substitution(outside, replacement)
        assert landscape.fitness(mutated) == pytest.approx(landscape.fitness(native))

    def test_mutation_inside_designable_positions_changes_fitness(self, pdz_target):
        landscape = pdz_target.landscape
        native = landscape.native_sequence
        rng = spawn_rng(3, "mutate")
        mutated = point_mutations(native, landscape.designable_positions, 3, rng)
        assert landscape.fitness(mutated) != pytest.approx(landscape.fitness(native))

    def test_length_mismatch_raises(self, pdz_target):
        with pytest.raises(SequenceError):
            pdz_target.landscape.fitness(ProteinSequence(residues="ACD", chain_id="A"))

    def test_partial_score_correlates_with_fitness(self, pdz_target):
        landscape = pdz_target.landscape
        rng = spawn_rng(4, "corr")
        partials, fits = [], []
        for _ in range(60):
            sequence = point_mutations(
                landscape.native_sequence, landscape.designable_positions, 4, rng
            )
            partials.append(landscape.partial_score(sequence))
            fits.append(landscape.fitness(sequence))
        correlation = np.corrcoef(partials, fits)[0, 1]
        assert correlation > 0.4

    def test_additive_profile_only_for_designable(self, pdz_target):
        landscape = pdz_target.landscape
        profile = landscape.additive_profile(landscape.designable_positions[0])
        assert profile.shape == (20,)
        outside = next(
            p for p in range(landscape.receptor_length)
            if p not in landscape.designable_positions
        )
        with pytest.raises(ProteinError):
            landscape.additive_profile(outside)

    def test_additive_logits_are_the_rows_less_their_maximum(self, pdz_target):
        landscape = pdz_target.landscape
        profiles = np.stack(
            [landscape.additive_profile(p) for p in landscape.designable_positions]
        )
        logits = landscape.additive_logits()
        assert logits is landscape.additive_logits()
        assert not logits.flags.writeable
        np.testing.assert_array_equal(
            logits, profiles - profiles.max(axis=1, keepdims=True), strict=True
        )
        assert np.all(logits.max(axis=1) == 0.0)

    def test_couplings_make_fitness_epistatic(self, pdz_target):
        # Fitness is the logistic of the additive partial score plus the
        # coupling terms, on one calibration; with couplings, what fitness
        # adds to the partial score changes from one sequence to the next.
        landscape = pdz_target.landscape
        native = landscape.native_sequence
        rng = spawn_rng(3, "probe")
        gaps = set()
        for n_mutations in (0, 2, 2, 4, 4):
            sequence = point_mutations(
                native, landscape.designable_positions, n_mutations, rng
            )
            fitness = landscape.fitness(sequence)
            logit = math.log(fitness) - math.log1p(-fitness)
            gaps.add(round(logit - landscape.partial_score(sequence), 9))
        assert len(gaps) > 1

    def test_constructor_validation(self, pdz_target):
        native = pdz_target.landscape.native_sequence
        with pytest.raises(ProteinError):
            FitnessLandscape("x", len(native), [], native, seed=1)
        with pytest.raises(ProteinError):
            FitnessLandscape("x", len(native), [len(native) + 5], native, seed=1)
        with pytest.raises(ProteinError, match="receptor_length must be"):
            FitnessLandscape("x", 0, [0], native, seed=1)
        with pytest.raises(ProteinError, match="does not match receptor_length"):
            FitnessLandscape("x", len(native) + 1, [0], native, seed=1)

    def test_batch_length_mismatch_raises(self, pdz_target):
        landscape = pdz_target.landscape
        short = ProteinSequence(residues="ACD", chain_id="A")
        with pytest.raises(SequenceError, match="does not match receptor"):
            landscape.fitness_batch([landscape.native_sequence, short])


class TestSurrogateProteinMPNN:
    def test_generates_requested_count(self, pdz_target):
        mpnn = SurrogateProteinMPNN(seed=1)
        designs = mpnn.generate(pdz_target.complex, pdz_target.landscape, n_sequences=7)
        assert len(designs) == 7

    def test_sequences_have_receptor_length_and_finite_scores(self, pdz_target):
        mpnn = SurrogateProteinMPNN(seed=1)
        for scored in mpnn.generate(pdz_target.complex, pdz_target.landscape):
            assert len(scored.sequence) == pdz_target.landscape.receptor_length
            assert np.isfinite(scored.log_likelihood)

    def test_mutations_restricted_to_designable_positions(self, pdz_target):
        mpnn = SurrogateProteinMPNN(seed=2)
        native = pdz_target.complex.receptor.sequence
        designable = set(pdz_target.landscape.designable_positions)
        for scored in mpnn.generate(pdz_target.complex, pdz_target.landscape):
            assert set(_differing_positions(native, scored.sequence)) <= designable

    def test_fixed_positions_respected(self, pdz_target):
        fixed = pdz_target.landscape.designable_positions[:3]
        mpnn = SurrogateProteinMPNN(MPNNConfig(fixed_positions=tuple(fixed)), seed=3)
        native = pdz_target.complex.receptor.sequence
        for scored in mpnn.generate(pdz_target.complex, pdz_target.landscape):
            for position in fixed:
                assert scored.sequence[position] == native[position]

    def test_deterministic_given_stream(self, pdz_target):
        a = SurrogateProteinMPNN(seed=5).generate(
            pdz_target.complex, pdz_target.landscape, stream=("c", 0)
        )
        b = SurrogateProteinMPNN(seed=5).generate(
            pdz_target.complex, pdz_target.landscape, stream=("c", 0)
        )
        assert [s.sequence.residues for s in a] == [s.sequence.residues for s in b]

    def test_different_streams_differ(self, pdz_target):
        mpnn = SurrogateProteinMPNN(seed=5)
        a = mpnn.generate(pdz_target.complex, pdz_target.landscape, stream=("c", 0))
        b = mpnn.generate(pdz_target.complex, pdz_target.landscape, stream=("c", 1))
        assert [s.sequence.residues for s in a] != [s.sequence.residues for s in b]

    def test_better_backbone_yields_better_designs_on_average(self, pdz_target):
        mpnn = SurrogateProteinMPNN(seed=7)
        landscape = pdz_target.landscape
        poor = replace(pdz_target.complex, backbone_quality=0.05)
        good = replace(pdz_target.complex, backbone_quality=0.95)
        poor_fitness = np.mean([
            landscape.fitness(s.sequence)
            for s in mpnn.generate(poor, landscape, n_sequences=30, stream=("poor",))
        ])
        good_fitness = np.mean([
            landscape.fitness(s.sequence)
            for s in mpnn.generate(good, landscape, n_sequences=30, stream=("good",))
        ])
        assert good_fitness > poor_fitness

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MPNNConfig(n_sequences=0)
        with pytest.raises(ConfigurationError):
            MPNNConfig(temperature=0)
        with pytest.raises(ConfigurationError):
            MPNNConfig(mutation_rate=0.0)
        with pytest.raises(ConfigurationError, match="score_noise"):
            MPNNConfig(score_noise=-0.1)
        with pytest.raises(ConfigurationError, match="backbone_sharpening"):
            MPNNConfig(backbone_sharpening=-1.0)

    @pytest.mark.parametrize("field", ["temperature", "score_noise", "backbone_sharpening"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_config_rejects_non_finite_numbers(self, field, value):
        # A NaN temperature or sharpening used to turn every substitution
        # into alanine; a NaN score noise failed only inside a task payload.
        with pytest.raises(ConfigurationError, match=field):
            MPNNConfig(**{field: value})

    def test_zero_sequence_request_rejected(self, pdz_target):
        mpnn = SurrogateProteinMPNN(seed=1)
        with pytest.raises(ConfigurationError, match="at least one sequence"):
            mpnn.generate(pdz_target.complex, pdz_target.landscape, n_sequences=0)

    def test_receptor_length_must_match_the_landscape(self, pdz_target):
        longer = make_pdz_target("HTRA1", seed=23, receptor_length=95)
        mpnn = SurrogateProteinMPNN(seed=1)
        with pytest.raises(ProteinError, match="does not match the landscape"):
            mpnn.generate(longer.complex, pdz_target.landscape)

    def test_all_positions_fixed_raises(self, pdz_target):
        config = MPNNConfig(fixed_positions=tuple(pdz_target.landscape.designable_positions))
        mpnn = SurrogateProteinMPNN(config, seed=1)
        with pytest.raises(ProteinError):
            mpnn.generate(pdz_target.complex, pdz_target.landscape)

    def test_refuses_more_designable_positions_than_the_sampler_reproduces(self):
        # Above 10,000 positions Generator.choice may change algorithm.  The
        # check comes before anything but the lengths is read, so stand-ins
        # for the complex and the landscape do.
        n = MAX_SAMPLE_POPULATION + 1
        complex_structure = SimpleNamespace(
            name="wide", receptor=SimpleNamespace(sequence="A" * n)
        )
        landscape = SimpleNamespace(receptor_length=n, designable_positions=range(n))
        with pytest.raises(ProteinError, match="10001 designable positions"):
            SurrogateProteinMPNN(seed=1).generate(complex_structure, landscape)


class TestSurrogateAlphaFold:
    def test_metric_ranges(self, pdz_target):
        folding = SurrogateAlphaFold(seed=11)
        rng = spawn_rng(8, "af")
        for index in range(15):
            sequence = point_mutations(
                pdz_target.landscape.native_sequence,
                pdz_target.landscape.designable_positions,
                3,
                rng,
            )
            result = folding.predict(
                pdz_target.complex, pdz_target.landscape, sequence, stream=(index,)
            )
            assert 0.0 <= result.metrics.plddt <= 100.0
            assert 0.0 <= result.metrics.ptm <= 1.0
            assert result.metrics.interchain_pae >= 0.0
            assert 0.0 <= result.fitness <= 1.0

    def test_metrics_increase_with_fitness(self, pdz_target):
        folding = SurrogateAlphaFold(seed=11)
        landscape = pdz_target.landscape
        rng = spawn_rng(9, "af")
        records = []
        for index in range(60):
            # Vary the mutational load so the sampled fitness range is wide.
            sequence = point_mutations(
                landscape.native_sequence,
                landscape.designable_positions,
                1 + index % 12,
                rng,
            )
            result = folding.predict(pdz_target.complex, landscape, sequence, stream=(index,))
            records.append((result.fitness, result.metrics))
        fits = np.array([fitness for fitness, _ in records])
        plddts = np.array([metrics.plddt for _, metrics in records])
        paes = np.array([metrics.interchain_pae for _, metrics in records])
        # Correlation is positive/negative even with the surrogate's noise...
        assert np.corrcoef(fits, plddts)[0, 1] > 0.3
        assert np.corrcoef(fits, paes)[0, 1] < -0.3
        # ...and the top-fitness tercile clearly beats the bottom tercile.
        order = np.argsort(fits)
        third = len(order) // 3
        low, high = order[:third], order[-third:]
        assert plddts[high].mean() > plddts[low].mean()
        assert paes[high].mean() < paes[low].mean()

    def test_refined_structure_closes_the_loop(self, pdz_target):
        folding = SurrogateAlphaFold(seed=11)
        result = folding.predict(pdz_target.complex, pdz_target.landscape)
        assert result.structure.backbone_quality == pytest.approx(result.fitness)
        assert result.structure.receptor.sequence.residues == (
            pdz_target.complex.receptor.sequence.residues
        )

    def test_refined_structure_changes_only_the_design(self, pdz_target):
        native = pdz_target.complex.receptor.sequence
        design = ProteinSequence(native.residues[::-1], chain_id="Z", name="design.1")
        result = SurrogateAlphaFold(seed=11).predict(
            pdz_target.complex, pdz_target.landscape, design
        )
        # The receptor chain keeps its id; nothing else of the complex changes.
        installed = ProteinSequence(design.residues, native.chain_id, design.name)
        assert result.structure == replace(
            pdz_target.complex,
            receptor=pdz_target.complex.receptor.with_sequence(installed),
            backbone_quality=result.structure.backbone_quality,
        )

    @pytest.mark.parametrize("msa_mode", ["full_msa", "single_sequence"])
    def test_noise_comes_from_the_spawn_rng_stream(self, pdz_target, msa_mode):
        # Bit for bit, over several calls on one model, so each call starts
        # its own stream whatever the previous call drew.
        folding = SurrogateAlphaFold(msa_mode=msa_mode, seed=13)
        landscape = pdz_target.landscape
        designs = SurrogateProteinMPNN(seed=2).generate(
            pdz_target.complex, landscape, n_sequences=4, stream=("ref",)
        )
        sequences = [landscape.native_sequence] + [d.sequence for d in designs]
        for stream in [(), ("p.0001", 2), (7, "retry", 1)]:
            for sequence in sequences:
                result = folding.predict(
                    pdz_target.complex, landscape, sequence, stream=stream
                )
                metrics, fitness = _reference_fold(
                    13, msa_mode, pdz_target.complex, landscape, sequence, stream
                )
                assert result.metrics == metrics
                assert result.fitness == fitness

    @pytest.mark.parametrize("msa_mode", ["full_msa", "single_sequence"])
    def test_result_equals_the_replace_reference(self, pdz_target, msa_mode):
        folding = SurrogateAlphaFold(msa_mode=msa_mode, seed=17)
        target_complex = pdz_target.complex
        landscape = pdz_target.landscape
        designs = SurrogateProteinMPNN(seed=4).generate(
            target_complex, landscape, n_sequences=6, stream=("fold-ref",)
        )
        native = landscape.native_sequence
        sequences = [native] + [design.sequence for design in designs] + [
            ProteinSequence(designs[0].sequence.residues, chain_id="Z", name="other")
        ]
        cases = [(sequence, landscape.fitness(sequence)) for sequence in sequences]
        # Fitness outside [0, 1] never comes from a landscape; the clamp still
        # keeps the refined complex's quality in [0, 1].
        cases += [(native, -0.25), (native, 1.25), (native, 0.0), (native, 1.0)]
        for stream in [(), ("p.0003", 1, 2)]:
            for sequence, fitness in cases:
                got = folding._result_from_fitness(target_complex, sequence, fitness, stream)
                metrics, refined = _reference_result_from_fitness(
                    folding, target_complex, sequence, fitness, stream
                )
                assert got.metrics == metrics
                assert got.fitness == fitness
                structure = got.structure
                assert structure == refined
                assert structure.receptor.coordinates is target_complex.receptor.coordinates
                assert structure.peptide.coordinates is target_complex.peptide.coordinates
                assert structure.name == target_complex.name
                assert structure.peptide == target_complex.peptide
                assert structure.designable_positions == target_complex.designable_positions
                assert structure.receptor.chain_id == target_complex.receptor.chain_id
                assert structure.receptor.sequence.residues == sequence.residues
                assert 0.0 <= structure.backbone_quality <= 1.0

    def test_deterministic_per_stream(self, pdz_target):
        folding = SurrogateAlphaFold(seed=11)
        a = folding.predict(pdz_target.complex, pdz_target.landscape, stream=("x",))
        b = folding.predict(pdz_target.complex, pdz_target.landscape, stream=("x",))
        assert a.metrics.plddt == b.metrics.plddt

    def test_single_sequence_mode_is_noisier(self, pdz_target):
        landscape = pdz_target.landscape
        sequence = landscape.native_sequence
        full = SurrogateAlphaFold(msa_mode="full_msa", seed=1)
        single = SurrogateAlphaFold(msa_mode="single_sequence", seed=1)
        full_spread = np.std([
            full.predict(pdz_target.complex, landscape, sequence, stream=(i,)).metrics.plddt
            for i in range(25)
        ])
        single_spread = np.std([
            single.predict(pdz_target.complex, landscape, sequence, stream=(i,)).metrics.plddt
            for i in range(25)
        ])
        assert single_spread > full_spread

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="msa_mode"):
            SurrogateAlphaFold(msa_mode="bogus")

    def test_predict_batch_needs_aligned_inputs(self, pdz_target):
        folding = SurrogateAlphaFold(seed=1)
        native = pdz_target.landscape.native_sequence
        with pytest.raises(ConfigurationError, match="one complex per sequence"):
            folding.predict_batch(
                [pdz_target.complex], pdz_target.landscape, [native, native]
            )
        with pytest.raises(ConfigurationError, match="one landscape per sequence"):
            folding.predict_batch(
                pdz_target.complex, [pdz_target.landscape], [native, native]
            )
        with pytest.raises(ConfigurationError, match="one stream per sequence"):
            folding.predict_batch(
                pdz_target.complex, pdz_target.landscape, [native, native],
                streams=[(0,)],
            )
        with pytest.raises(ProteinError, match="does not match the landscape"):
            folding.predict_batch(
                pdz_target.complex,
                pdz_target.landscape,
                [ProteinSequence(residues="ACD", chain_id="A")],
            )

    def test_length_mismatch_raises(self, pdz_target):
        folding = SurrogateAlphaFold(seed=1)
        with pytest.raises(ProteinError):
            folding.predict(
                pdz_target.complex,
                pdz_target.landscape,
                ProteinSequence(residues="ACD", chain_id="A"),
            )
