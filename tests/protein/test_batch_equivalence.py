"""Scalar/batch equivalence of the vectorized evaluation core.

The batch APIs (``fitness_batch``, ``partial_score_batch``, ``predict_batch``
and the vectorized ``ScoringFunction.score``) are the hot paths of
campaign-scale runs; the scalar entry points are kept as thin wrappers.
These tests pin the contract: batch and scalar evaluation agree to within
1e-9 on seeded inputs, per-design RNG streams make batched folding
predictions match their scalar counterparts, scoring a design from the
memoised geometry of its target equals measuring that geometry again, bit
for bit, and a seeded end-to-end ``GeneticOptimizer.run()`` still produces
the exact pre-vectorization result.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.genetic import GeneticConfig, GeneticOptimizer
from repro.protein.datasets import make_pdz_target, named_pdz_targets
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.mpnn import SurrogateProteinMPNN
import repro.protein.scoring as scoring_module
from repro.protein.scoring import EnergyBreakdown, ScoringFunction
from repro.protein.sequence import ProteinSequence, ScoredSequence
from repro.protein.structure import Chain


@pytest.fixture(scope="module")
def equivalence_target():
    return make_pdz_target("NHERF3", seed=11)


@pytest.fixture(scope="module")
def design_sequences(equivalence_target):
    """A seeded pool of designed sequences exercising many mutations."""
    mpnn = SurrogateProteinMPNN(seed=5)
    scored = mpnn.generate(
        equivalence_target.complex,
        equivalence_target.landscape,
        n_sequences=32,
        stream=("equivalence",),
    )
    return [design.sequence for design in scored]


class TestLandscapeBatchEquivalence:
    def test_fitness_batch_matches_scalar(self, equivalence_target, design_sequences):
        landscape = equivalence_target.landscape
        batch = landscape.fitness_batch(design_sequences)
        scalar = np.array([landscape.fitness(s) for s in design_sequences])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-9)

    def test_fitness_batch_accepts_encoded_matrix(
        self, equivalence_target, design_sequences
    ):
        landscape = equivalence_target.landscape
        encoded = np.stack([s.encode() for s in design_sequences])
        from_encoded = landscape.fitness_batch(encoded)
        from_sequences = landscape.fitness_batch(design_sequences)
        np.testing.assert_array_equal(from_encoded, from_sequences)

    def test_partial_score_batch_matches_scalar(
        self, equivalence_target, design_sequences
    ):
        landscape = equivalence_target.landscape
        batch = landscape.partial_score_batch(design_sequences)
        scalar = np.array([landscape.partial_score(s) for s in design_sequences])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-9)

    def test_empty_batch(self, equivalence_target):
        landscape = equivalence_target.landscape
        assert landscape.fitness_batch([]).shape == (0,)
        assert landscape.partial_score_batch([]).shape == (0,)

    def test_encoded_matrix_is_validated(self, equivalence_target):
        from repro.exceptions import SequenceError

        landscape = equivalence_target.landscape
        length = landscape.receptor_length
        with pytest.raises(SequenceError):
            landscape.fitness_batch(np.full((2, length), -1, dtype=np.int64))
        with pytest.raises(SequenceError):
            landscape.fitness_batch(np.full((2, length), 20, dtype=np.int64))
        with pytest.raises(SequenceError):
            landscape.fitness_batch(np.zeros((2, length), dtype=float))
        with pytest.raises(SequenceError):
            landscape.fitness_batch(np.zeros((2, length + 1), dtype=np.int64))


class TestFoldingBatchEquivalence:
    def test_predict_batch_matches_scalar_predict(
        self, equivalence_target, design_sequences
    ):
        folding = SurrogateAlphaFold(seed=11)
        landscape = equivalence_target.landscape
        streams = [(index,) for index in range(len(design_sequences))]
        batch = folding.predict_batch(
            equivalence_target.complex, landscape, design_sequences, streams=streams
        )
        for index, (sequence, result) in enumerate(zip(design_sequences, batch)):
            scalar = folding.predict(
                equivalence_target.complex, landscape, sequence, stream=(index,)
            )
            assert result.fitness == pytest.approx(scalar.fitness, abs=1e-9)
            assert result.metrics.plddt == pytest.approx(scalar.metrics.plddt, abs=1e-9)
            assert result.metrics.ptm == pytest.approx(scalar.metrics.ptm, abs=1e-9)
            assert result.metrics.interchain_pae == pytest.approx(
                scalar.metrics.interchain_pae, abs=1e-9
            )
            assert result.structure.receptor.sequence == scalar.structure.receptor.sequence
            assert result.structure.backbone_quality == pytest.approx(
                scalar.structure.backbone_quality, abs=1e-9
            )

    def test_predict_batch_per_design_structures(self, equivalence_target):
        """One complex per design (the genetic optimizer's offspring path)."""
        folding = SurrogateAlphaFold(seed=7)
        landscape = equivalence_target.landscape
        base = equivalence_target.complex
        structures = [replace(base, backbone_quality=q) for q in (0.2, 0.5, 0.8)]
        sequences = [base.receptor.sequence] * 3
        batch = folding.predict_batch(structures, landscape, sequences)
        scalar = [
            folding.predict(structure, landscape, sequence)
            for structure, sequence in zip(structures, sequences)
        ]
        for batched, single in zip(batch, scalar):
            assert batched.metrics.plddt == pytest.approx(
                single.metrics.plddt, abs=1e-9
            )

    def test_predict_batch_per_design_landscapes(self):
        """One landscape per design (the campaign's batched baseline path)."""
        targets = named_pdz_targets(seed=11)
        folding = SurrogateAlphaFold(seed=3)
        batch = folding.predict_batch(
            [target.complex for target in targets],
            [target.landscape for target in targets],
            [target.complex.receptor.sequence for target in targets],
            streams=[("baseline",)] * len(targets),
        )
        for target, batched in zip(targets, batch):
            scalar = folding.predict(
                target.complex, target.landscape, stream=("baseline",)
            )
            # Per-design RNG streams and grouped fitness_batch calls keep the
            # multi-landscape batch bit-identical to scalar predictions.
            assert batched.metrics == scalar.metrics
            assert batched.fitness == scalar.fitness

    def test_predict_batch_landscape_count_mismatch_rejected(
        self, equivalence_target
    ):
        from repro.exceptions import ConfigurationError

        folding = SurrogateAlphaFold(seed=3)
        sequence = equivalence_target.complex.receptor.sequence
        with pytest.raises(ConfigurationError, match="one landscape per sequence"):
            folding.predict_batch(
                equivalence_target.complex,
                [equivalence_target.landscape] * 2,
                [sequence],
            )

    def test_campaign_baseline_matches_scalar_predictions(self):
        """The batched iteration-0 baseline equals per-target scalar folding."""
        targets = named_pdz_targets(seed=11)
        campaign = DesignCampaign(
            targets, CampaignConfig(protocol="cont-v", seed=5, n_cycles=1)
        )
        baseline = campaign._baseline_metrics()
        for target in targets:
            scalar = campaign.models.folding.predict(
                target.complex, target.landscape, stream=("baseline",)
            )
            assert baseline[target.name] == scalar.metrics


class TestScoringVectorization:
    def test_score_matches_naive_pair_loop(self, equivalence_target):
        """The gather-based score equals a per-contact pair_energy loop."""
        scoring = ScoringFunction()
        complex_structure = equivalence_target.complex
        receptor = complex_structure.receptor
        peptide = complex_structure.peptide
        deltas = receptor.coordinates[:, None, :] - peptide.coordinates[None, :, :]
        distances = np.sqrt((deltas ** 2).sum(axis=2))

        naive_energy = 0.0
        naive_clashes = 0
        for i, j in np.argwhere(distances < 8.0):
            naive_energy += scoring.pair_energy(
                receptor.sequence.residues[int(i)], peptide.sequence.residues[int(j)]
            )
            if distances[i, j] < 3.0:
                naive_clashes += 1

        breakdown = scoring.score(complex_structure)
        assert breakdown.contact_energy == pytest.approx(naive_energy, abs=1e-9)
        assert breakdown.clash_penalty == pytest.approx(5.0 * naive_clashes, abs=1e-9)

    def test_pair_energy_matches_matrix(self):
        scoring = ScoringFunction()
        assert scoring.pair_energy("I", "L") == -1.0
        assert scoring.pair_energy("K", "E") == -1.5
        assert scoring.pair_energy("K", "R") == 1.0
        assert scoring.pair_energy("A", "S") == 0.0


def _reference_score(scoring, complex_structure):
    """``ScoringFunction.score`` as it was before the geometry memo.

    It measures the complex's geometry on every call and gathers the pair
    energies through a boolean contact mask.
    """
    receptor = complex_structure.receptor
    peptide = complex_structure.peptide
    deltas = receptor.coordinates[:, None, :] - peptide.coordinates[None, :, :]
    distances = np.sqrt((deltas ** 2).sum(axis=2))

    contact_mask = distances < scoring_module._CONTACT_CUTOFF
    pair_energies = scoring._pair_matrix[
        receptor.sequence.encode()[:, None], peptide.sequence.encode()[None, :]
    ]
    contact_energy = float(pair_energies[contact_mask].sum())
    clash_count = int((distances < scoring_module._CLASH_CUTOFF).sum())

    compactness = receptor.radius_of_gyration() / max(1.0, len(receptor) ** (1.0 / 3.0))

    return EnergyBreakdown(
        contact_energy=float(contact_energy),
        clash_penalty=float(scoring_module._CLASH_WEIGHT * clash_count),
        compactness_penalty=float(scoring_module._COMPACTNESS_WEIGHT * compactness),
    )


@pytest.fixture(scope="module")
def folded_designs():
    """24 folded MPNN designs per Table I target, as a campaign scores them."""
    mpnn = SurrogateProteinMPNN(seed=5)
    folding = SurrogateAlphaFold(seed=3)
    designs = {}
    for target in named_pdz_targets(seed=11):
        sequences = [
            design.sequence
            for design in mpnn.generate(
                target.complex, target.landscape, n_sequences=24, stream=("memo",)
            )
        ]
        results = folding.predict_batch(
            target.complex,
            target.landscape,
            sequences,
            streams=[(index,) for index in range(len(sequences))],
        )
        designs[target.name] = (target, [result.structure for result in results])
    return designs


class TestScoringGeometryMemo:
    """One measured geometry per target; every energy keeps its bits."""

    @pytest.mark.parametrize("name", ["NHERF3", "HTRA1", "SCRIB", "SHANK1"])
    def test_score_equals_the_reference_bit_for_bit(self, folded_designs, name):
        target, structures = folded_designs[name]
        shared = ScoringFunction()
        shared.score(target.complex)  # every design below is a memo hit
        for structure in structures:
            assert structure.receptor.coordinates is target.complex.receptor.coordinates
            want = _reference_score(shared, structure)
            assert ScoringFunction().score(structure) == want  # first call
            assert shared.score(structure) == want  # memo hit
        assert len(shared._geometries) == 1

    def test_three_of_the_four_targets_clash(self, folded_designs):
        scoring = ScoringFunction()
        clashing = [
            name
            for name, (target, _) in folded_designs.items()
            if _reference_score(scoring, target.complex).clash_penalty > 0
        ]
        assert len(clashing) == 3

    def test_equal_valued_copies_get_their_own_entry(self, equivalence_target):
        scoring = ScoringFunction()
        original = equivalence_target.complex
        copied = replace(
            original,
            receptor=Chain(original.receptor.sequence, original.receptor.coordinates.copy()),
            peptide=Chain(original.peptide.sequence, original.peptide.coordinates.copy()),
        )
        want = scoring.score(original)
        assert scoring.score(copied) == want
        assert len(scoring._geometries) == 2
        assert scoring.score(original) == want
        assert len(scoring._geometries) == 2

    @pytest.mark.parametrize("protocol", ["im-rp", "cont-v"])
    def test_a_campaign_measures_one_geometry_per_target(self, protocol):
        campaign = DesignCampaign(
            named_pdz_targets(seed=11),
            CampaignConfig(protocol=protocol, seed=5, n_cycles=2, n_sequences=4),
        )
        result = campaign.run()
        scored = [t for t in result.trajectories if t.energy_total is not None]
        assert len(scored) > 4
        assert len(campaign.models.scoring._geometries) == 4


def _reference_rank(candidates):
    """``ScoredSequence.rank`` as it was: a stable argsort of the negated scores."""
    candidates = list(candidates)
    if len(candidates) < 2:
        return candidates
    scores = np.array([scored.log_likelihood for scored in candidates])
    order = np.argsort(-scores, kind="stable")
    return [candidates[int(index)] for index in order]


class TestRankVectorization:
    @given(
        scores=st.lists(
            st.sampled_from([0.0, -0.0, 0.3, -0.3, 1.5, -2.0, 1e-300, -1e300]),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_equals_the_stable_argsort_reference(self, design_sequences, scores):
        scored = [
            ScoredSequence(sequence=design_sequences[index], log_likelihood=value)
            for index, value in enumerate(scores)
        ]
        before = list(scored)
        ranked = ScoredSequence.rank(scored)
        assert [id(s) for s in ranked] == [id(s) for s in _reference_rank(scored)]
        assert ranked is not scored
        assert [id(s) for s in scored] == [id(s) for s in before]

    def test_rank_matches_stable_sorted(self, design_sequences):
        scored = [
            ScoredSequence(sequence=sequence, log_likelihood=value)
            for sequence, value in zip(
                design_sequences, [0.3, -0.1, 0.3, 0.7, 0.0, -0.5, 0.3, 0.7]
            )
        ]
        expected = sorted(scored, key=lambda s: s.log_likelihood, reverse=True)
        assert ScoredSequence.rank(scored) == expected

    def test_rank_trivial_inputs(self, design_sequences):
        assert ScoredSequence.rank([]) == []
        single = [ScoredSequence(sequence=design_sequences[0], log_likelihood=1.0)]
        assert ScoredSequence.rank(single) == single


class TestSequenceEncodingCache:
    def test_encode_is_cached_and_read_only(self):
        sequence = ProteinSequence(residues="ACDEFGHIKLMNPQRSTVWY", chain_id="A")
        first = sequence.encode()
        assert first is sequence.encode()
        assert not first.flags.writeable

    def test_mutated_copies_carry_correct_encoding(self):
        sequence = ProteinSequence(residues="ACDEFGHIKL", chain_id="A")
        sequence.encode()  # populate the cache so propagation kicks in
        mutated = sequence.with_substitution(0, "W").with_substitution(3, "Y")
        assert mutated.residues == "WCDYFGHIKL"
        expected = np.fromiter(
            (list("ACDEFGHIKLMNPQRSTVWY").index(r) for r in mutated.residues),
            dtype=np.int64,
        )
        np.testing.assert_array_equal(mutated.encode(), expected)


class TestGeneticEndToEndGolden:
    def test_seeded_run_reproduces_prevectorization_result(self):
        """Golden pinned from the pre-vectorization (seed) implementation.

        The batch refactor preserves every RNG draw, so a seeded end-to-end
        run must still produce the same best design (scores to 1e-9).
        """
        target = make_pdz_target("NHERF3", seed=11)
        config = GeneticConfig(
            population_size=4, offspring_per_parent=2, n_generations=2
        )
        best = GeneticOptimizer(target, config=config, seed=21).run()
        assert best.sequence.residues == (
            "DHTIDIGVVFATVEKRGRPDMGDRMLQFKFACLLAKDTFIMSSALLVNSPIFIEAREYHTI"
            "ADKRVVSFIESQPYAYSPKSGEDDEQEKV"
        )
        assert best.composite == pytest.approx(0.7936619461966069, abs=1e-9)
        assert best.fitness == pytest.approx(0.7555809389262016, abs=1e-9)
