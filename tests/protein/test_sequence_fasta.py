"""Tests for the alphabet, sequences and scored sequences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SequenceError
from repro.protein.alphabet import (
    AA_TO_INDEX,
    AMINO_ACIDS,
    is_valid_sequence,
    property_matrix,
)
from repro.protein.sequence import ProteinSequence, ScoredSequence, decode_batch

_residue = st.sampled_from(AMINO_ACIDS)
_residues = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=120)


class TestAlphabet:
    def test_twenty_unique_amino_acids(self):
        assert len(AMINO_ACIDS) == 20
        assert len(set(AMINO_ACIDS)) == 20

    def test_aa_index_round_trip(self):
        for index, residue in enumerate(AMINO_ACIDS):
            assert AA_TO_INDEX[residue] == index
        assert len(AA_TO_INDEX) == 20

    def test_is_valid_sequence(self):
        assert is_valid_sequence("ACDEFGHIKLMNPQRSTVWY")
        assert not is_valid_sequence("ACDX")
        assert not is_valid_sequence("")

    def test_property_matrix_standardised(self):
        matrix = property_matrix()
        assert matrix.shape == (20, 3)
        assert np.allclose(matrix.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(matrix.std(axis=0), 1.0, atol=1e-9)


class TestProteinSequence:
    def test_rejects_invalid_residues(self):
        with pytest.raises(SequenceError):
            ProteinSequence(residues="ABZ", chain_id="A")

    def test_rejects_empty_chain_id(self):
        with pytest.raises(SequenceError):
            ProteinSequence(residues="ACD", chain_id="")

    def test_substitution_creates_new_object(self):
        original = ProteinSequence(residues="ACDE", chain_id="A")
        mutated = original.with_substitution(1, "W")
        assert mutated.residues == "AWDE"
        assert original.residues == "ACDE"

    def test_substitution_validation(self):
        sequence = ProteinSequence(residues="ACDE", chain_id="A")
        with pytest.raises(SequenceError):
            sequence.with_substitution(9, "A")
        with pytest.raises(SequenceError):
            sequence.with_substitution(0, "Z")

    def test_encode_matches_alphabet(self):
        sequence = ProteinSequence(residues="ACD", chain_id="A")
        assert list(sequence.encode()) == [AMINO_ACIDS.index(aa) for aa in "ACD"]

    def test_iteration_and_indexing(self):
        sequence = ProteinSequence(residues="ACD", chain_id="A")
        assert list(sequence) == ["A", "C", "D"]
        assert sequence[1] == "C"
        assert len(sequence) == 3

    @given(_residues, st.integers(min_value=0, max_value=200), _residue)
    @settings(max_examples=80, deadline=None)
    def test_substitution_property(self, residues, position, replacement):
        sequence = ProteinSequence(residues=residues, chain_id="A")
        if position >= len(residues):
            with pytest.raises(SequenceError):
                sequence.with_substitution(position, replacement)
        else:
            mutated = sequence.with_substitution(position, replacement)
            assert mutated[position] == replacement
            assert sum(a != b for a, b in zip(mutated, sequence)) <= 1


class TestScoredSequence:
    def test_rank_sorts_descending(self):
        base = ProteinSequence(residues="ACD", chain_id="A")
        scored = [
            ScoredSequence(sequence=base, log_likelihood=value)
            for value in (0.1, -2.0, 3.5)
        ]
        ranked = ScoredSequence.rank(scored)
        assert [s.log_likelihood for s in ranked] == [3.5, 0.1, -2.0]

    def test_rank_is_permutation(self):
        base = ProteinSequence(residues="ACD", chain_id="A")
        scored = [ScoredSequence(sequence=base, log_likelihood=float(i)) for i in range(5)]
        ranked = ScoredSequence.rank(scored)
        assert sorted(id(s) for s in ranked) == sorted(id(s) for s in scored)

    def test_non_finite_score_rejected(self):
        base = ProteinSequence(residues="ACD", chain_id="A")
        with pytest.raises(SequenceError):
            ScoredSequence(sequence=base, log_likelihood=float("nan"))

    @pytest.mark.parametrize("value", [float("inf"), -np.inf])
    def test_infinite_score_rejected(self, value):
        base = ProteinSequence(residues="ACD", chain_id="A")
        with pytest.raises(SequenceError):
            ScoredSequence(sequence=base, log_likelihood=value)

    def test_numpy_score_accepted(self):
        base = ProteinSequence(residues="ACD", chain_id="A")
        assert ScoredSequence(sequence=base, log_likelihood=np.float64(0.5))


class TestDecodeBatch:
    def test_rows_become_named_sequences(self):
        sources = ["ACDEFG", "WYVTSR", "AAAAAA"]
        encoded = np.stack([ProteinSequence(r).encode() for r in sources])
        decoded = decode_batch(encoded, "B", ["x", "y", "z"])
        assert [s.residues for s in decoded] == sources
        assert [s.name for s in decoded] == ["x", "y", "z"]
        assert {s.chain_id for s in decoded} == {"B"}
        assert decoded[1] == ProteinSequence("WYVTSR", chain_id="B", name="y")

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_each_sequence_owns_a_read_only_int64_encoding(self, dtype):
        encoded = np.array([[0, 1, 2], [19, 18, 17]], dtype=dtype)
        decoded = decode_batch(encoded, "A", ["a", "b"])
        for sequence, row in zip(decoded, encoded):
            cached = sequence.encode()
            assert cached.dtype == np.int64
            assert not cached.flags.writeable
            assert not np.shares_memory(cached, encoded)
            np.testing.assert_array_equal(cached, row)
        encoded[0, 0] = 5
        assert decoded[0].residues == "ACD"
        assert decoded[0].encode()[0] == 0

    def test_empty_batch(self):
        assert decode_batch(np.zeros((0, 4), dtype=np.int64), "A", []) == []

    @pytest.mark.parametrize(
        "encoded, names, match",
        [
            (np.array([[0, 20]]), ["a"], "outside"),
            (np.array([[-1, 0]]), ["a"], "outside"),
            (np.array([[0.0, 1.0]]), ["a"], "integer"),
            (np.array([[True, False]]), ["a"], "integer"),
            (np.array([0, 1]), ["a"], "one row per name"),
            (np.zeros((1, 0), dtype=np.int64), ["a"], "one row per name"),
            (np.array([[0, 1]]), ["a", "b"], "one row per name"),
        ],
    )
    def test_invalid_batches_rejected(self, encoded, names, match):
        with pytest.raises(SequenceError, match=match):
            decode_batch(encoded, "A", names)

    def test_empty_chain_id_rejected(self):
        with pytest.raises(SequenceError, match="chain_id"):
            decode_batch(np.array([[0, 1]]), "", ["a"])

