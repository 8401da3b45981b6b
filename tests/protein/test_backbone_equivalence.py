"""Batched ≡ scalar construction of receptor backbones and target sets.

:func:`~repro.protein.structure.synthetic_backbones` walks a whole target
set in lockstep.  These tests pin it bit for bit to the per-residue loop it
replaced (kept here as the reference), pin the two NumPy primitives whose
rounding that equality rests on, and check that a target is the same
whichever set builds it.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import StructureError
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C4,
    PDZ_TARGET_NAMES,
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
