"""Tests for quality metrics, coarse scoring, mutation operators and datasets."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, DatasetError, ProteinError, SequenceError
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C4,
    ALPHA_SYNUCLEIN_C10,
    PDZ_TARGET_NAMES,
    _upper_quartile,
    expanded_pdz_set,
    make_pdz_target,
    named_pdz_targets,
)
from repro.protein.metrics import (
    _PAE_RANGE,
    _PLDDT_RANGE,
    _PTM_RANGE,
    QualityMetrics,
    _normalise,
    aggregate_metrics,
    composite_score,
    is_improvement,
)
from repro.protein.mutation import crossover, point_mutations
import repro.protein.scoring as scoring_module
from repro.protein.scoring import ScoringFunction
from repro.protein.sequence import ProteinSequence
from repro.utils.rng import spawn_rng

_metrics_strategy = st.builds(
    QualityMetrics,
    plddt=st.floats(min_value=0.0, max_value=100.0),
    ptm=st.floats(min_value=0.0, max_value=1.0),
    interchain_pae=st.floats(min_value=0.0, max_value=32.0),
)


class TestQualityMetrics:
    def test_bounds_enforced(self):
        with pytest.raises(ProteinError):
            QualityMetrics(plddt=120.0, ptm=0.5, interchain_pae=10.0)
        with pytest.raises(ProteinError):
            QualityMetrics(plddt=50.0, ptm=1.5, interchain_pae=10.0)
        with pytest.raises(ProteinError):
            QualityMetrics(plddt=50.0, ptm=0.5, interchain_pae=-1.0)

    @pytest.mark.parametrize("field", ["plddt", "ptm", "interchain_pae"])
    def test_nan_rejected(self, field):
        values = {"plddt": 50.0, "ptm": 0.5, "interchain_pae": 10.0, field: float("nan")}
        with pytest.raises(ProteinError):
            QualityMetrics(**values)

    @pytest.mark.parametrize("bounds", [_PLDDT_RANGE, _PTM_RANGE, _PAE_RANGE])
    @pytest.mark.parametrize("invert", [False, True])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_normalise_matches_numpy_clip(self, bounds, invert, data):
        low, high = bounds
        span = high - low
        value = data.draw(
            st.one_of(
                st.floats(),
                st.floats(min_value=low - span, max_value=high + span),
                st.sampled_from(
                    [low, high, -0.0, 0.0, math.inf, -math.inf,
                     math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]
                ),
            )
        )
        scaled = float(np.clip((value - low) / span, 0.0, 1.0))
        expected = 1.0 - scaled if invert else scaled
        actual = _normalise(value, bounds, invert=invert)
        assert type(actual) is float
        assert struct.pack("<d", actual) == struct.pack("<d", expected)

    def test_as_dict(self):
        metrics = QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=9.0)
        assert metrics.as_dict() == {"plddt": 80.0, "ptm": 0.7, "interchain_pae": 9.0}

    @given(_metrics_strategy)
    @settings(max_examples=100, deadline=None)
    def test_composite_in_unit_interval(self, metrics):
        assert 0.0 <= composite_score(metrics) <= 1.0

    @given(_metrics_strategy)
    @settings(max_examples=100, deadline=None)
    def test_default_weights_equal_the_same_weights_passed(self, metrics):
        # The default weights are normalised once; passed in, on every call.
        assert composite_score(metrics) == composite_score(metrics, weights=(0.4, 0.35, 0.25))

    def test_composite_monotone_in_each_metric(self):
        base = QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0)
        assert composite_score(QualityMetrics(80.0, 0.6, 12.0)) > composite_score(base)
        assert composite_score(QualityMetrics(70.0, 0.7, 12.0)) > composite_score(base)
        assert composite_score(QualityMetrics(70.0, 0.6, 8.0)) > composite_score(base)

    def test_composite_weight_validation(self):
        metrics = QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0)
        with pytest.raises(ProteinError):
            composite_score(metrics, weights=(1.0, 1.0))
        with pytest.raises(ProteinError):
            composite_score(metrics, weights=(0.0, 0.0, 0.0))

    def test_is_improvement_first_iteration(self):
        metrics = QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0)
        assert is_improvement(metrics, None)

    def test_is_improvement_composite(self):
        old = QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0)
        better = QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=9.0)
        worse = QualityMetrics(plddt=60.0, ptm=0.5, interchain_pae=15.0)
        assert is_improvement(better, old)
        assert not is_improvement(worse, old)

    def test_is_improvement_strict(self):
        old = QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0)
        mixed = QualityMetrics(plddt=90.0, ptm=0.55, interchain_pae=9.0)
        assert is_improvement(mixed, old, strict=False)
        assert not is_improvement(mixed, old, strict=True)

    def test_aggregate_metrics(self):
        values = [
            QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0),
            QualityMetrics(plddt=80.0, ptm=0.8, interchain_pae=8.0),
        ]
        aggregate = aggregate_metrics(values)
        assert aggregate["plddt"]["median"] == pytest.approx(75.0)
        assert aggregate["ptm"]["count"] == 2
        assert aggregate["interchain_pae"]["half_std"] == pytest.approx(1.0)
        with pytest.raises(ProteinError):
            aggregate_metrics([])


class TestScoringFunction:
    def test_energy_breakdown_fields(self, target):
        scoring = ScoringFunction()
        breakdown = scoring.score(target.complex)
        assert breakdown.total == pytest.approx(
            breakdown.contact_energy + breakdown.clash_penalty + breakdown.compactness_penalty
        )
        assert breakdown.compactness_penalty > 0

    def test_pair_energy_symmetry_of_signs(self):
        scoring = ScoringFunction()
        assert scoring.pair_energy("I", "L") < 0  # hydrophobic pair
        assert scoring.pair_energy("K", "E") < 0  # salt bridge
        assert scoring.pair_energy("K", "R") > 0  # like charges
        with pytest.raises(ConfigurationError):
            scoring.pair_energy("X", "A")

    def test_clash_cutoff_is_inside_the_contact_cutoff(self):
        # The clash count is a plain count because every clash pair is also
        # a contact pair.
        assert scoring_module._CLASH_CUTOFF < scoring_module._CONTACT_CUTOFF

    def test_docked_complex_has_contacts_within_the_scoring_cutoff(self, target):
        # The default 8-angstrom contact cutoff of ScoringFunction.
        assert (target.complex.interchain_distances() < 8.0).any()



class TestMutationOperators:
    def test_point_mutations_change_exactly_n_positions(self):
        rng = spawn_rng(1, "mut")
        sequence = ProteinSequence(residues="A" * 30, chain_id="A")
        mutated = point_mutations(sequence, list(range(30)), 5, rng)
        assert sum(a != b for a, b in zip(sequence, mutated)) == 5

    def test_point_mutations_respect_allowed_positions(self):
        rng = spawn_rng(2, "mut")
        sequence = ProteinSequence(residues="A" * 30, chain_id="A")
        allowed = [0, 1, 2]
        mutated = point_mutations(sequence, allowed, 3, rng)
        differing = {
            index
            for index, (a, b) in enumerate(zip(sequence.residues, mutated.residues))
            if a != b
        }
        assert differing <= set(allowed)

    def test_point_mutations_validation(self):
        rng = spawn_rng(3, "mut")
        sequence = ProteinSequence(residues="AAAA", chain_id="A")
        with pytest.raises(SequenceError):
            point_mutations(sequence, [], 1, rng)
        with pytest.raises(SequenceError):
            point_mutations(sequence, [0], -1, rng)
        assert point_mutations(sequence, [0], 0, rng) is sequence

    def test_crossover_child_takes_residues_from_parents(self):
        rng = spawn_rng(4, "cx")
        a = ProteinSequence(residues="A" * 20, chain_id="A", name="a")
        b = ProteinSequence(residues="W" * 20, chain_id="A", name="b")
        child = crossover(a, b, rng)
        assert set(child.residues) <= {"A", "W"}
        assert "A" in child.residues and "W" in child.residues

    def test_crossover_restricted_positions(self):
        rng = spawn_rng(5, "cx")
        a = ProteinSequence(residues="A" * 20, chain_id="A")
        b = ProteinSequence(residues="W" * 20, chain_id="A")
        child = crossover(a, b, rng, positions=[0, 1])
        assert set(child.residues[2:]) == {"A"}

    def test_crossover_validation(self):
        rng = spawn_rng(6, "cx")
        a = ProteinSequence(residues="AAA", chain_id="A")
        b = ProteinSequence(residues="AAAA", chain_id="A")
        with pytest.raises(SequenceError):
            crossover(a, b, rng)
        other_chain = ProteinSequence(residues="AAA", chain_id="B")
        with pytest.raises(SequenceError, match="same chain"):
            crossover(a, other_chain, rng)


#: Docking stretch distances: short vectors of non-negative means, with ties.
_stretch_distances = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        st.sampled_from([0.0, 7.5, 12.25, 30.0]),
    ),
    min_size=1,
    max_size=129,
)


class TestUpperQuartile:
    """The docking threshold is ``np.quantile(values, 0.75)``, bit for bit."""

    @given(_stretch_distances)
    @settings(max_examples=500, deadline=None)
    def test_equals_numpy_quantile(self, values):
        values = np.asarray(values, dtype=float)
        threshold = _upper_quartile(values)
        expected = np.quantile(values, 0.75)
        assert threshold == expected
        assert np.array_equal(values >= threshold, values >= expected)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([5.0], 5.0),  # one value is its own quartile
            ([1.0, 2.0, 3.0, 4.0, 5.0], 4.0),  # index (5 - 1) * 0.75 = 3
            ([1.0, 2.0, 3.0, 4.0], 3.25),  # weight 0.25: below + step * 0.25
            ([0.0, 10.0, 20.0], 15.0),  # weight 0.5: above - step * 0.5
        ],
    )
    def test_interpolates_linearly(self, values, expected):
        assert _upper_quartile(np.asarray(values)) == expected


class TestDatasets:
    def test_alpha_synuclein_peptides(self):
        assert len(ALPHA_SYNUCLEIN_C10) == 10
        assert len(ALPHA_SYNUCLEIN_C4) == 4
        assert ALPHA_SYNUCLEIN_C10.endswith(ALPHA_SYNUCLEIN_C4)

    def test_named_targets_match_paper(self):
        targets = named_pdz_targets(seed=1)
        assert [t.name for t in targets] == list(PDZ_TARGET_NAMES)
        assert len(targets) == 4
        for target in targets:
            assert target.peptide_sequence == ALPHA_SYNUCLEIN_C10
            assert target.n_designable > 0

    def test_targets_deterministic_in_seed(self):
        a = make_pdz_target("SCRIB", seed=5)
        b = make_pdz_target("SCRIB", seed=5)
        c = make_pdz_target("SCRIB", seed=6)
        assert a.complex.receptor.sequence.residues == b.complex.receptor.sequence.residues
        assert a.complex.receptor.sequence.residues != c.complex.receptor.sequence.residues
        assert a.landscape.fitness(a.landscape.native_sequence) == pytest.approx(
            b.landscape.fitness(b.landscape.native_sequence)
        )

    def test_targets_differ_between_names(self):
        a = make_pdz_target("NHERF3", seed=5)
        b = make_pdz_target("SHANK1", seed=5)
        assert a.complex.receptor.sequence.residues != b.complex.receptor.sequence.residues

    def test_designable_positions_are_the_interface(self):
        target = make_pdz_target("NHERF3", seed=5)
        assert tuple(target.complex.designable_positions) == tuple(
            sorted(target.complex.interface_positions())
        )

    def test_expanded_set_size_and_peptide(self):
        targets = expanded_pdz_set(n_targets=12, seed=3)
        assert len(targets) == 12
        assert len({t.name for t in targets}) == 12
        for target in targets:
            assert target.peptide_sequence == ALPHA_SYNUCLEIN_C4

    def test_expanded_set_varies_lengths(self):
        targets = expanded_pdz_set(n_targets=12, seed=3)
        lengths = {len(t.complex.receptor) for t in targets}
        assert len(lengths) > 1

    def test_validation(self):
        with pytest.raises(DatasetError):
            make_pdz_target("X", receptor_length=5)
        with pytest.raises(DatasetError):
            make_pdz_target("X", peptide_residues="")
        with pytest.raises(DatasetError):
            expanded_pdz_set(n_targets=0)
        with pytest.raises(DatasetError, match="peptide cannot be longer"):
            make_pdz_target("X", peptide_residues="A" * 20, receptor_length=20)
