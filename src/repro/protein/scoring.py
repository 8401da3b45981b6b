"""Coarse energy scoring of complexes ("Scoring and Simulation", Stage 5).

The paper's Stage 5 gathers quality metrics and runs scoring/simulation on
the predicted complex.  Alongside the AlphaFold confidence metrics (computed
by the folding surrogate) the pipelines record a Rosetta-flavoured coarse
energy: interchain contact energy weighted by residue compatibility, a clash
penalty and a compactness term.  The scoring stage returns the total, which
the trajectory records report; the adaptive decision in the paper (and here)
is taken on the AlphaFold metrics.

Designs change sequences, never atoms: every complex a campaign scores
shares its target's two coordinate arrays.  A :class:`ScoringFunction`
therefore measures each receptor/peptide geometry once and keeps what
depends only on atoms (the contact pairs, the clash count and the
compactness term); scoring a design is then a gather over its sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.protein.alphabet import AA_TO_INDEX, AMINO_ACIDS, CHARGE, HYDROPHOBICITY
from repro.protein.structure import ComplexStructure

__all__ = ["EnergyBreakdown", "ScoringFunction"]

#: CA-CA distance (angstroms) below which a receptor/peptide pair counts as a
#: contact, and the shorter one below which it clashes.
_CONTACT_CUTOFF = 8.0
_CLASH_CUTOFF = 3.0
#: Weights of the clash and compactness penalty terms.
_CLASH_WEIGHT = 5.0
_COMPACTNESS_WEIGHT = 0.05


@dataclass(frozen=True)
class EnergyBreakdown:
    """Decomposed coarse energy of a complex (lower is better)."""

    contact_energy: float
    clash_penalty: float
    compactness_penalty: float

    @property
    def total(self) -> float:
        return self.contact_energy + self.clash_penalty + self.compactness_penalty


class _Geometry(NamedTuple):
    """What a score takes from one complex's atoms (see ``ScoringFunction``)."""

    #: The two coordinate arrays measured.  Holding them keeps their ids,
    #: the memo key, from being reused while the entry exists.
    receptor_xyz: np.ndarray
    peptide_xyz: np.ndarray
    #: Row-major indices of the contacting (receptor, peptide) pairs.
    rows: np.ndarray
    cols: np.ndarray
    clash_penalty: float
    compactness_penalty: float


class ScoringFunction:
    """Pairwise-contact energy with clash and compactness terms.

    The atom-only terms are measured once per receptor/peptide coordinate
    array pair, keyed by the arrays' identity, and kept for the life of the
    instance: one entry per target a campaign scores.  Scoring is therefore
    correct only while nobody moves atoms in place.
    """

    def __init__(self) -> None:
        # Precompute the full 20x20 residue pair-energy matrix once, so
        # score() is an encoded-sequence gather instead of a Python loop with
        # dict lookups per contact pair.
        hydrophobicity = np.array([HYDROPHOBICITY[aa] for aa in AMINO_ACIDS])
        charge = np.array([CHARGE[aa] for aa in AMINO_ACIDS])
        hydrophobic = hydrophobicity > 1.0
        charge_product = charge[:, None] * charge[None, :]
        pair_matrix = np.zeros((len(AMINO_ACIDS), len(AMINO_ACIDS)))
        pair_matrix -= 1.0 * (hydrophobic[:, None] & hydrophobic[None, :])
        pair_matrix -= 1.5 * (charge_product < 0)
        pair_matrix += 1.0 * (charge_product > 0)
        self._pair_matrix = pair_matrix
        self._geometries: Dict[Tuple[int, int], _Geometry] = {}

    def pair_energy(self, residue_a: str, residue_b: str) -> float:
        """Compatibility energy of two contacting residues (negative = favourable).

        Hydrophobic pairs and oppositely charged pairs are favourable;
        like-charged pairs are penalised.  Values are in arbitrary units.
        """
        try:
            index_a = AA_TO_INDEX[residue_a]
            index_b = AA_TO_INDEX[residue_b]
        except KeyError:
            raise ConfigurationError(
                f"unknown residues {residue_a!r}/{residue_b!r}"
            ) from None
        return float(self._pair_matrix[index_a, index_b])

    def score(self, complex_structure: ComplexStructure) -> EnergyBreakdown:
        """Score a complex; lower total energy is better.

        The contact energy gathers the precomputed pair matrix over the
        geometry's contact pairs, in the row-major order a boolean contact
        mask selects them, so it sums the same values in the same order.
        """
        receptor = complex_structure.receptor
        peptide = complex_structure.peptide
        key = (id(receptor.coordinates), id(peptide.coordinates))
        geometry = self._geometries.get(key)
        if geometry is None:
            geometry = self._geometries[key] = self._measure(complex_structure)
        contact_energy = self._pair_matrix[
            receptor.sequence.encode()[geometry.rows],
            peptide.sequence.encode()[geometry.cols],
        ].sum()
        return EnergyBreakdown(
            contact_energy=float(contact_energy),
            clash_penalty=geometry.clash_penalty,
            compactness_penalty=geometry.compactness_penalty,
        )

    def _measure(self, complex_structure: ComplexStructure) -> _Geometry:
        """The atom-only terms of one complex's score."""
        receptor = complex_structure.receptor
        distances = complex_structure.interchain_distances()
        rows, cols = np.nonzero(distances < _CONTACT_CUTOFF)
        # Clash pairs are a subset of contact pairs (the clash cutoff is the
        # shorter), so a plain count suffices.
        clash_count = int((distances < _CLASH_CUTOFF).sum())
        compactness = receptor.radius_of_gyration() / max(1.0, len(receptor) ** (1.0 / 3.0))
        return _Geometry(
            receptor_xyz=receptor.coordinates,
            peptide_xyz=complex_structure.peptide.coordinates,
            rows=rows,
            cols=cols,
            clash_penalty=float(_CLASH_WEIGHT * clash_count),
            compactness_penalty=float(_COMPACTNESS_WEIGHT * compactness),
        )
