"""Tests for coarse structures and complexes."""

from __future__ import annotations

from dataclasses import fields, replace

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


class TestWithDesign:
    """``with_design`` ≡ ``replace`` + ``Chain.with_sequence``, field for field."""

    @pytest.mark.parametrize("quality", [0.0, 0.42, 1.0])
    @pytest.mark.parametrize("chain_id", ["A", "Z"])
    def test_equals_replace_with_sequence(self, quality, chain_id):
        base = replace(_complex(), designable_positions=(9, 2, 5, 2))
        design = ProteinSequence("W" * len(base.receptor), chain_id=chain_id, name="d.7")
        got = base.with_design(design, quality)
        want = replace(
            base, receptor=base.receptor.with_sequence(design), backbone_quality=quality
        )
        assert type(got) is ComplexStructure and type(got.receptor) is Chain
        for field in fields(ComplexStructure):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert got == want
        assert got.receptor.sequence is design
        assert got.receptor.coordinates is base.receptor.coordinates
        assert got.peptide is base.peptide
        assert got.designable_positions == (2, 5, 9)
        assert got.backbone_quality is quality

    def test_refuses_a_sequence_of_another_length(self):
        base = _complex()
        with pytest.raises(StructureError, match="same length"):
            base.with_design(ProteinSequence("ACD", chain_id="A"), 0.5)

    @pytest.mark.parametrize("quality", [-0.01, 1.01, float("nan"), float("inf")])
    def test_refuses_a_quality_outside_the_unit_interval(self, quality):
        base = _complex()
        with pytest.raises(StructureError, match=r"\[0, 1\]"):
            base.with_design(base.receptor.sequence, quality)

    def test_refuses_the_peptide_chain_id(self):
        base = _complex()
        design = ProteinSequence(base.receptor.sequence.residues, chain_id="B")
        with pytest.raises(StructureError, match="distinct chain ids"):
            base.with_design(design, 0.5)
        with pytest.raises(StructureError, match="distinct chain ids"):
            replace(base, receptor=base.receptor.with_sequence(design))
