"""The amino-acid alphabet and per-residue physico-chemical properties.

The surrogate models never need real chemistry, but giving residues a small
property vector (hydrophobicity, charge, volume) makes the synthetic fitness
landscape behave like a sequence landscape rather than a lookup table:
conservative substitutions move fitness less than radical ones, and the
landscape generalises smoothly over unseen sequences.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

__all__ = [
    "AMINO_ACIDS",
    "AA_TO_INDEX",
    "is_valid_sequence",
    "HYDROPHOBICITY",
    "CHARGE",
    "VOLUME",
    "property_matrix",
]

#: The 20 canonical amino acids, one-letter codes, in a fixed canonical order.
AMINO_ACIDS: str = "ACDEFGHIKLMNPQRSTVWY"

#: Map from one-letter code to its index in :data:`AMINO_ACIDS`.
AA_TO_INDEX: Dict[str, int] = {aa: index for index, aa in enumerate(AMINO_ACIDS)}

#: Kyte-Doolittle hydropathy (approximate, normalised later).
HYDROPHOBICITY: Mapping[str, float] = {
    "A": 1.8, "C": 2.5, "D": -3.5, "E": -3.5, "F": 2.8,
    "G": -0.4, "H": -3.2, "I": 4.5, "K": -3.9, "L": 3.8,
    "M": 1.9, "N": -3.5, "P": -1.6, "Q": -3.5, "R": -4.5,
    "S": -0.8, "T": -0.7, "V": 4.2, "W": -0.9, "Y": -1.3,
}

#: Net side-chain charge at physiological pH.
CHARGE: Mapping[str, float] = {
    "A": 0.0, "C": 0.0, "D": -1.0, "E": -1.0, "F": 0.0,
    "G": 0.0, "H": 0.1, "I": 0.0, "K": 1.0, "L": 0.0,
    "M": 0.0, "N": 0.0, "P": 0.0, "Q": 0.0, "R": 1.0,
    "S": 0.0, "T": 0.0, "V": 0.0, "W": 0.0, "Y": 0.0,
}

#: Side-chain volume in cubic angstroms (approximate).
VOLUME: Mapping[str, float] = {
    "A": 88.6, "C": 108.5, "D": 111.1, "E": 138.4, "F": 189.9,
    "G": 60.1, "H": 153.2, "I": 166.7, "K": 168.6, "L": 166.7,
    "M": 162.9, "N": 114.1, "P": 112.7, "Q": 143.8, "R": 173.4,
    "S": 89.0, "T": 116.1, "V": 140.0, "W": 227.8, "Y": 193.6,
}


def is_valid_sequence(sequence: str) -> bool:
    """Whether every character of ``sequence`` is a canonical amino acid."""
    if not sequence:
        return False
    return all(residue in AA_TO_INDEX for residue in sequence)


def property_matrix() -> np.ndarray:
    """A ``(20, 3)`` matrix of z-scored (hydrophobicity, charge, volume).

    Row order follows :data:`AMINO_ACIDS`.  The columns are standardised to
    zero mean and unit variance so the landscape treats the three properties
    on an equal footing.
    """
    raw = np.array(
        [
            [HYDROPHOBICITY[aa], CHARGE[aa], VOLUME[aa]]
            for aa in AMINO_ACIDS
        ],
        dtype=float,
    )
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std[std == 0] = 1.0
    return (raw - mean) / std
