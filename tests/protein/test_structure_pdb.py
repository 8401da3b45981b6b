"""Tests for coarse structures and complexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StructureError
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import CA_CA_DISTANCE, Chain, ComplexStructure, synthetic_backbone


def _chain(residues: str, chain_id: str, seed: int = 0, origin=(0.0, 0.0, 0.0)) -> Chain:
    coords = synthetic_backbone(len(residues), seed=seed, origin=origin)
    return Chain(
        sequence=ProteinSequence(residues=residues, chain_id=chain_id),
        coordinates=coords,
    )


def _complex(seed: int = 3) -> ComplexStructure:
    receptor = _chain("ACDEFGHIKLMNPQRSTVWY" * 3, "A", seed=seed)
    # Place the peptide right next to the first receptor residues so the
    # interface is non-empty.
    peptide_coords = receptor.coordinates[:4] + np.array([5.0, 0.0, 0.0])
    peptide = Chain(
        sequence=ProteinSequence(residues="EPEA", chain_id="B"),
        coordinates=peptide_coords,
    )
    return ComplexStructure(name="test_complex", receptor=receptor, peptide=peptide)


class TestSyntheticBackbone:
    def test_shape_and_determinism(self):
        a = synthetic_backbone(50, seed=1)
        b = synthetic_backbone(50, seed=1)
        c = synthetic_backbone(50, seed=2)
        assert a.shape == (50, 3)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_consecutive_ca_distance_fixed(self):
        coords = synthetic_backbone(80, seed=5)
        steps = np.linalg.norm(np.diff(coords, axis=0), axis=1)
        assert np.allclose(steps, CA_CA_DISTANCE, atol=1e-6)

    def test_compactness_reduces_radius(self):
        spread = synthetic_backbone(120, seed=7, compactness=0.0)
        compact = synthetic_backbone(120, seed=7, compactness=0.8)

        def radius(coords):
            deltas = coords - coords.mean(axis=0)
            return np.sqrt((deltas ** 2).sum(axis=1).mean())

        assert radius(compact) < radius(spread)

    def test_validation(self):
        with pytest.raises(StructureError):
            synthetic_backbone(0, seed=1)
        with pytest.raises(StructureError):
            synthetic_backbone(10, seed=1, compactness=1.5)


class TestChain:
    def test_coordinate_sequence_length_mismatch(self):
        with pytest.raises(StructureError):
            Chain(
                sequence=ProteinSequence(residues="ACD", chain_id="A"),
                coordinates=np.zeros((4, 3)),
            )

    def test_bad_coordinate_shape(self):
        with pytest.raises(StructureError):
            Chain(
                sequence=ProteinSequence(residues="ACD", chain_id="A"),
                coordinates=np.zeros((3, 2)),
            )

    def test_centroid_and_radius(self):
        chain = _chain("ACDEFGHIKL", "A", seed=2)
        assert chain.centroid().shape == (3,)
        assert chain.radius_of_gyration() > 0

    def test_with_sequence_same_length_only(self):
        chain = _chain("ACDE", "A")
        replaced = chain.with_sequence(ProteinSequence(residues="WWWW", chain_id="A"))
        assert replaced.sequence.residues == "WWWW"
        with pytest.raises(StructureError):
            chain.with_sequence(ProteinSequence(residues="WW", chain_id="A"))


class TestComplexStructure:
    def test_name_required(self):
        complex_structure = _complex()
        with pytest.raises(StructureError, match="non-empty name"):
            ComplexStructure(
                name="",
                receptor=complex_structure.receptor,
                peptide=complex_structure.peptide,
            )

    def test_distinct_chain_ids_required(self):
        receptor = _chain("ACDE", "A")
        peptide = _chain("EPEA", "A", seed=9)
        with pytest.raises(StructureError):
            ComplexStructure(name="x", receptor=receptor, peptide=peptide)

    def test_backbone_quality_bounds(self):
        complex_structure = _complex()
        with pytest.raises(StructureError):
            ComplexStructure(
                name="x",
                receptor=complex_structure.receptor,
                peptide=complex_structure.peptide,
                backbone_quality=1.5,
            )

    def test_interface_positions_non_empty(self):
        complex_structure = _complex()
        interface = complex_structure.interface_positions()
        assert interface
        assert all(0 <= p < len(complex_structure.receptor) for p in interface)

    def test_interchain_distances_are_pairwise_ca_distances(self):
        complex_structure = _complex()
        receptor = complex_structure.receptor.coordinates
        peptide = complex_structure.peptide.coordinates
        distances = complex_structure.interchain_distances()
        assert distances.shape == (len(receptor), len(peptide))
        expected = [[np.linalg.norm(r - p) for p in peptide] for r in receptor]
        np.testing.assert_allclose(distances, expected, rtol=1e-12)

    def test_designable_positions_validated(self):
        complex_structure = _complex()
        with pytest.raises(StructureError):
            ComplexStructure(
                name="x",
                receptor=complex_structure.receptor,
                peptide=complex_structure.peptide,
                designable_positions=(10_000,),
            )
