"""Batched ≡ scalar construction of receptor backbones and target sets.

:func:`~repro.protein.structure.synthetic_backbones` walks a whole target
set in lockstep, and ``_dock_peptide`` places a whole peptide in one step.
These tests pin both bit for bit to the per-residue loops they replaced
(kept here as the references), pin the two NumPy primitives whose rounding
that equality rests on, and check that a target is the same whichever set
builds it.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import StructureError
from repro.protein.alphabet import AA_TO_INDEX
from repro.protein.datasets import (
    _NATURAL_FREQUENCIES,
    _STANDOFF,
    ALPHA_SYNUCLEIN_C4,
    PDZ_TARGET_NAMES,
    _dock_peptide,
    _natural_sequence,
    _upper_quartile,
    expanded_pdz_set,
    make_pdz_target,
    named_pdz_targets,
)
from repro.protein.structure import (
    CA_CA_DISTANCE,
    _row_norms,
    synthetic_backbone,
    synthetic_backbones,
)


def _reference_backbone(length: int, seed: int, compactness: float) -> np.ndarray:
    """One walk, one residue at a time: the loop the batched walk replaced."""
    rng = np.random.default_rng(seed)
    coords = np.zeros((length, 3), dtype=float)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    for index in range(1, length):
        wobble = rng.normal(scale=0.9, size=3)
        centroid = coords[:index].mean(axis=0)
        pull = centroid - coords[index - 1]
        norm = np.linalg.norm(pull)
        if norm > 1e-9:
            pull /= norm
        direction = direction + wobble + compactness * pull
        direction /= np.linalg.norm(direction)
        coords[index] = coords[index - 1] + CA_CA_DISTANCE * direction
    return coords


def _reference_dock(
    receptor_coords: np.ndarray, peptide_length: int, rng: np.random.Generator
) -> np.ndarray:
    """``_dock_peptide`` as it was: one peptide residue at a time."""
    length = receptor_coords.shape[0]
    centroid = receptor_coords.mean(axis=0)
    distances = np.linalg.norm(receptor_coords - centroid, axis=1)
    candidate_starts = np.arange(0, length - peptide_length)
    stretch_distance = sliding_window_view(distances, peptide_length)[
        : length - peptide_length
    ].mean(axis=1)
    threshold = _upper_quartile(stretch_distance)
    exposed = candidate_starts[stretch_distance >= threshold]
    start = int(rng.choice(exposed))

    peptide_coords = np.zeros((peptide_length, 3), dtype=float)
    for offset in range(peptide_length):
        anchor = receptor_coords[start + offset]
        outward = anchor - centroid
        norm = np.linalg.norm(outward)
        if norm < 1e-9:
            outward = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        peptide_coords[offset] = anchor + _STANDOFF * outward / norm
    return peptide_coords


def _reference_natural_sequence(length: int, rng: np.random.Generator) -> str:
    """``_natural_sequence``'s residues as it drew them: letter by letter."""
    letters = list(_NATURAL_FREQUENCIES.keys())
    weights = np.array([_NATURAL_FREQUENCIES[aa] for aa in letters], dtype=float)
    weights /= weights.sum()
    indices = rng.choice(len(letters), size=length, p=weights)
    return "".join(letters[int(i)] for i in indices)


def _assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64)
    )


#: Mixed-length batches: lengths 1 and 2, repeated and equal lengths, the
#: expanded set's range, and a single walk.
BATCHES = [
    [1],
    [2],
    [90],
    [1, 2, 3],
    [90, 90, 90, 90],
    [2, 104, 1, 80, 57, 104, 33],
    [int(n) for n in np.random.default_rng(7).integers(80, 105, size=24)],
]


class TestBatchedWalkMatchesScalarLoop:
    @pytest.mark.parametrize("compactness", [0.0, 0.45, 0.8])
    @pytest.mark.parametrize("lengths", BATCHES, ids=lambda b: f"n{len(b)}-max{max(b)}")
    def test_bitwise_equal_to_reference(self, lengths, compactness):
        seeds = [1000 + 17 * k for k in range(len(lengths))]
        traces = synthetic_backbones(lengths, seeds, compactness)
        assert len(traces) == len(lengths)
        for length, seed, trace in zip(lengths, seeds, traces):
            _assert_bitwise_equal(trace, _reference_backbone(length, seed, compactness))

    def test_random_batches(self):
        draw = np.random.default_rng(2025)
        for _ in range(20):
            lengths = [int(n) for n in draw.integers(1, 110, size=draw.integers(1, 9))]
            seeds = [int(s) for s in draw.integers(0, 2**62, size=len(lengths))]
            compactness = float(draw.choice([0.0, 0.45, 0.8]))
            traces = synthetic_backbones(lengths, seeds, compactness)
            for length, seed, trace in zip(lengths, seeds, traces):
                _assert_bitwise_equal(
                    trace, _reference_backbone(length, seed, compactness)
                )

    def test_single_walk_entry_point(self):
        origin = (1.5, -2.0, 0.25)
        got = synthetic_backbone(60, seed=9, compactness=0.45, origin=origin)
        _assert_bitwise_equal(got, _reference_backbone(60, 9, 0.45) + np.asarray(origin))

    def test_batch_membership_does_not_change_a_walk(self):
        alone = synthetic_backbones([70], [5])[0]
        together = synthetic_backbones([20, 70, 100], [4, 5, 6])[1]
        _assert_bitwise_equal(together, alone)

    def test_empty_batch(self):
        assert synthetic_backbones([], []) == []

    def test_validation(self):
        with pytest.raises(StructureError, match="one seed per"):
            synthetic_backbones([10, 10], [1])
        with pytest.raises(StructureError, match="length"):
            synthetic_backbones([10, 0], [1, 2])
        with pytest.raises(StructureError, match="compactness"):
            synthetic_backbones([10], [1], compactness=1.0)


class TestTargetAssemblyMatchesScalarLoops:
    @pytest.mark.parametrize("peptide_length", [1, 4, 10])
    def test_docking_bitwise_equal_to_reference(self, peptide_length):
        draw = np.random.default_rng(peptide_length)
        lengths = [int(n) for n in draw.integers(peptide_length + 1, 110, size=30)]
        seeds = [int(s) for s in draw.integers(0, 2**62, size=len(lengths))]
        for receptor, seed in zip(synthetic_backbones(lengths, seeds), seeds):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _dock_peptide(receptor, peptide_length, got_rng)
            _assert_bitwise_equal(got, _reference_dock(receptor, peptide_length, want_rng))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_an_anchor_at_the_centroid_points_along_x(self):
        receptor = np.zeros((20, 3))
        receptor[5] = (1.0, 2.0, 2.0)
        receptor[14] = (-1.0, -2.0, -2.0)
        fallbacks = 0
        for seed in range(8):
            got = _dock_peptide(receptor, 4, np.random.default_rng(seed))
            _assert_bitwise_equal(got, _reference_dock(receptor, 4, np.random.default_rng(seed)))
            fallbacks += int(np.all(got == (_STANDOFF, 0.0, 0.0), axis=1).sum())
        assert fallbacks > 0

    def test_native_sequence_equals_the_letter_by_letter_draw(self):
        for length in (1, 20, 90, 104):
            got_rng, want_rng = np.random.default_rng(length), np.random.default_rng(length)
            got = _natural_sequence(length, got_rng, "A", "n")
            assert got.residues == _reference_natural_sequence(length, want_rng)
            assert (got.chain_id, got.name) == ("A", "n")
            # The same draws as choice's: the generators stand alike after.
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            # The drawn indices are attached at build as the encoding: equal
            # to a fresh encode of the residues, read-only, and sharing no
            # memory (a view would keep a larger buffer alive).
            encoding = vars(got)["_encoded"]
            assert got.encode() is encoding
            fresh = np.fromiter(
                (AA_TO_INDEX[residue] for residue in got.residues), dtype=np.int64
            )
            assert encoding.dtype == fresh.dtype
            np.testing.assert_array_equal(encoding, fresh)
            assert not encoding.flags.writeable and encoding.base is None


class TestRoundingPrimitives:
    """The NumPy behaviour the bitwise equality above rests on.

    If a NumPy upgrade changes either primitive, these tests name the cause
    before the golden fingerprints and benchmark pins fail.
    """

    def test_row_norms_round_through_the_blas_dot(self):
        rows = np.random.default_rng(0).normal(size=(10_000, 3))
        dots = np.array([row.dot(row) for row in rows])
        np.testing.assert_array_equal(
            _row_norms(rows).view(np.uint64), np.sqrt(dots).view(np.uint64)
        )
        norms = np.array([np.linalg.norm(row) for row in rows])
        np.testing.assert_array_equal(
            _row_norms(rows).view(np.uint64), norms.view(np.uint64)
        )

    @pytest.mark.parametrize("window", range(1, 13))
    def test_window_means_sum_like_slice_means(self, window):
        """From window 8 up NumPy sums pairwise, not in sequence.

        Window 10 is the Table I peptide, window 4 the Fig 3 one.
        """
        draw = np.random.default_rng(window)
        for _ in range(50):
            values = draw.uniform(0.0, 30.0, size=int(draw.integers(window + 1, 120)))
            starts = len(values) - window
            windowed = sliding_window_view(values, window)[:starts].mean(axis=1)
            sliced = np.array([values[s:s + window].mean() for s in range(starts)])
            np.testing.assert_array_equal(
                windowed.view(np.uint64), sliced.view(np.uint64)
            )


def _assert_same_target(got, want) -> None:
    assert got.name == want.name and got.seed == want.seed
    for chain in ("receptor", "peptide"):
        got_chain = getattr(got.complex, chain)
        want_chain = getattr(want.complex, chain)
        assert got_chain.sequence.residues == want_chain.sequence.residues
        _assert_bitwise_equal(got_chain.coordinates, want_chain.coordinates)
    assert got.complex.designable_positions == want.complex.designable_positions
    assert got.complex.backbone_quality == want.complex.backbone_quality
    for tensor in ("_additive", "_coupling_tensor", "_pair_a", "_pair_b"):
        _assert_bitwise_equal(getattr(got.landscape, tensor), getattr(want.landscape, tensor))


class TestTargetIsIndependentOfItsSet:
    @pytest.mark.parametrize("seed", [0, 2025])
    def test_expanded_member_equals_single_build(self, seed):
        targets = expanded_pdz_set(12, seed=seed)
        assert len({len(target.complex.receptor) for target in targets}) > 1
        for target in targets:
            alone = make_pdz_target(
                target.name,
                peptide_residues=ALPHA_SYNUCLEIN_C4,
                seed=seed,
                receptor_length=len(target.complex.receptor),
            )
            _assert_same_target(target, alone)

    @pytest.mark.parametrize("seed", [0, 2025])
    def test_named_member_equals_single_build(self, seed):
        targets = named_pdz_targets(seed=seed)
        assert [target.name for target in targets] == list(PDZ_TARGET_NAMES)
        for target in targets:
            _assert_same_target(target, make_pdz_target(target.name, seed=seed))
