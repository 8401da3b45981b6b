"""Design targets: PDZ-domain / alpha-synuclein-peptide complexes.

The paper optimises binders for two target sets:

* four named PDZ domains — NHERF3, HTRA1, SCRIB and SHANK1 — each in complex
  with the last 10 residues of alpha-synuclein (Table I, Fig 2);
* 70 experimentally resolved PDZ-peptide complexes mined from the PDB, each
  in complex with the last 4 residues of alpha-synuclein (Fig 3).

The experimental structures are not redistributable and are not required for
the protocol logic, so targets are generated synthetically: a ~90-residue
receptor with a compact synthetic CA backbone, the real alpha-synuclein
C-terminal peptide sequence docked against a surface patch, and a per-target
fitness landscape over the interface positions.  Everything is deterministic
in the dataset seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import DatasetError
from repro.protein.landscape import FitnessLandscape
from repro.protein.alphabet import AMINO_ACIDS
from repro.protein.sequence import _LETTER_CODES, ProteinSequence
from repro.protein.structure import (
    Chain,
    ComplexStructure,
    _row_norms,
    synthetic_backbones,
)
from repro.utils.rng import derive_seed, spawn_rng

__all__ = [
    "ALPHA_SYNUCLEIN_C10",
    "ALPHA_SYNUCLEIN_C4",
    "EXPANDED_LENGTHS",
    "PDZ_LENGTH",
    "PDZ_TARGET_NAMES",
    "DesignTarget",
    "make_pdz_target",
    "named_pdz_targets",
    "expanded_pdz_set",
]

#: Last 10 residues of human alpha-synuclein (the Fig 2 / Table I peptide).
ALPHA_SYNUCLEIN_C10 = "EGYQDYEPEA"

#: Last 4 residues of human alpha-synuclein (the Fig 3 peptide).
ALPHA_SYNUCLEIN_C4 = "EPEA"

#: The four named PDZ domains of the paper's first experiment.
PDZ_TARGET_NAMES: Tuple[str, ...] = ("NHERF3", "HTRA1", "SCRIB", "SHANK1")

#: Typical PDZ domain length in residues: every named target's receptor length.
PDZ_LENGTH = 90

#: Half-open range ``[low, high)`` of the expanded set's receptor lengths.
EXPANDED_LENGTHS: Tuple[int, int] = (PDZ_LENGTH - 10, PDZ_LENGTH + 15)

#: Distance (angstroms) a docked peptide residue sits out from its anchor.
_STANDOFF = 6.0

# Residue frequencies approximating natural globular-protein composition,
# used to draw plausible native receptor sequences.
_NATURAL_FREQUENCIES = {
    "A": 0.083, "C": 0.014, "D": 0.054, "E": 0.067, "F": 0.039,
    "G": 0.071, "H": 0.023, "I": 0.059, "K": 0.058, "L": 0.097,
    "M": 0.024, "N": 0.040, "P": 0.047, "Q": 0.039, "R": 0.055,
    "S": 0.066, "T": 0.053, "V": 0.068, "W": 0.011, "Y": 0.032,
}
#: The frequencies in :data:`AMINO_ACIDS` order (the table's own order),
#: normalised to sum to one, and their CDF as ``Generator.choice(20, p=...)``
#: builds it: :func:`_natural_sequence`'s draw table, whose drawn index is
#: the residue's encoding.
_NATURAL_WEIGHTS = np.array([_NATURAL_FREQUENCIES[aa] for aa in AMINO_ACIDS], dtype=float)
_NATURAL_WEIGHTS /= _NATURAL_WEIGHTS.sum()
_NATURAL_WEIGHTS.flags.writeable = False
_NATURAL_CDF = _NATURAL_WEIGHTS.cumsum()
_NATURAL_CDF /= _NATURAL_CDF[-1]
_NATURAL_CDF.flags.writeable = False


@dataclass(frozen=True)
class DesignTarget:
    """A design problem: a starting complex plus its latent landscape."""

    name: str
    complex: ComplexStructure
    landscape: FitnessLandscape
    seed: int

    @property
    def peptide_sequence(self) -> str:
        return self.complex.peptide.sequence.residues

    @property
    def n_designable(self) -> int:
        return len(self.complex.designable_positions)


def _natural_sequence(length: int, rng: np.random.Generator, chain_id: str, name: str) -> ProteinSequence:
    """A native receptor sequence drawn from the natural residue frequencies.

    The draw is the one ``rng.choice(20, size=length, p=weights)`` makes
    (one ``random`` call, then a right-sided search of its CDF), without the
    set-up that validates ``p``.  A uniform draw lies in [0, 1) and the CDF
    ends at exactly 1.0, so every index is in [0, 19]: the letters need no
    validation, and the indices become the sequence's read-only encoding.
    """
    indices = _NATURAL_CDF.searchsorted(rng.random(length), side="right")
    sequence = ProteinSequence._trusted(
        _LETTER_CODES[indices].tobytes().decode("ascii"), chain_id, name
    )
    indices.setflags(write=False)
    object.__setattr__(sequence, "_encoded", indices)
    return sequence


def _upper_quartile(values: np.ndarray) -> float:
    """``np.quantile(values, 0.75)`` by NumPy's default (linear) method.

    ``np.quantile`` imports ``numpy.ma``, which every process that builds
    targets would otherwise load.  This repeats its arithmetic, NumPy's
    ``_lerp`` included, so the threshold keeps its bits and the docking
    its seeded result.
    """
    ordered = np.sort(values)
    index = (len(ordered) - 1) * 0.75
    lower = int(index)
    weight = index - lower
    below = ordered[lower]
    above = ordered[min(lower + 1, len(ordered) - 1)]
    step = above - below
    if weight >= 0.5:
        return float(above - step * (1 - weight))
    return float(below + step * weight)


def _dock_peptide(
    receptor_coords: np.ndarray,
    peptide_length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Place a peptide chain alongside a surface patch of the receptor.

    Each peptide residue sits :data:`_STANDOFF` angstroms outward from a
    consecutive stretch of receptor residues, inside the 10-angstrom cutoff
    of :meth:`ComplexStructure.interface_positions`, so every target has a
    non-empty interface.
    """
    length = receptor_coords.shape[0]
    if peptide_length >= length:
        raise DatasetError("peptide cannot be longer than the receptor")
    centroid = receptor_coords.mean(axis=0)
    # Choose an anchor stretch biased toward surface residues (far from centroid).
    distances = np.linalg.norm(receptor_coords - centroid, axis=1)
    candidate_starts = np.arange(0, length - peptide_length)
    # Each window sums in the order distances[start:start + L].mean() does.
    stretch_distance = sliding_window_view(distances, peptide_length)[
        : length - peptide_length
    ].mean(axis=1)
    # Sample among the top-quartile most exposed stretches.
    threshold = _upper_quartile(stretch_distance)
    exposed = candidate_starts[stretch_distance >= threshold]
    # The bounded draw ``rng.choice(exposed)`` makes, without its set-up.
    start = int(exposed[rng.integers(0, len(exposed))])

    # One step for all residues, rounding as a per-residue loop would: each
    # norm is the BLAS ``ddot`` that ``np.linalg.norm`` takes (see
    # ``_row_norms``), and an anchor at the centroid points along x.
    anchors = receptor_coords[start:start + peptide_length]
    outward = anchors - centroid
    norms = _row_norms(outward)
    at_centroid = norms < 1e-9
    outward[at_centroid] = (1.0, 0.0, 0.0)
    norms[at_centroid] = 1.0
    return anchors + _STANDOFF * outward / norms[:, None]


def _build_targets(
    names: Sequence[str],
    receptor_lengths: Sequence[int],
    seed: int,
    peptide_residues: str,
) -> List[DesignTarget]:
    """Build one target per ``(name, receptor length)``, walking all backbones at once.

    Every random choice of a target derives from ``(seed, name)``: its
    backbone from its own stream, everything else from its ``"assembly"``
    stream.  A target is therefore the same whichever set builds it.
    """
    if min(receptor_lengths) < 20:
        raise DatasetError("receptor_length must be at least 20 residues")
    if not peptide_residues:
        raise DatasetError("peptide must have at least one residue")

    # Validated once here; each target's peptide is built trusted below.
    ProteinSequence(residues=peptide_residues, chain_id="B", name=f"{names[0]}_peptide")
    target_seeds = [derive_seed(seed, "target", name) for name in names]
    backbones = synthetic_backbones(
        receptor_lengths,
        [derive_seed(target_seed, "backbone") for target_seed in target_seeds],
        compactness=0.45,
    )
    peptide_length = len(peptide_residues)
    targets: List[DesignTarget] = []
    for name, target_seed, receptor_coords in zip(names, target_seeds, backbones):
        rng = spawn_rng(target_seed, "assembly")
        receptor_length = receptor_coords.shape[0]
        receptor_sequence = _natural_sequence(
            receptor_length, rng, chain_id="A", name=name
        )
        peptide_sequence = ProteinSequence._trusted(
            peptide_residues, "B", f"{name}_peptide"
        )
        peptide_coords = _dock_peptide(receptor_coords, peptide_length, rng)

        receptor = Chain(sequence=receptor_sequence, coordinates=receptor_coords)
        peptide = Chain(sequence=peptide_sequence, coordinates=peptide_coords)

        provisional = ComplexStructure(
            name=name,
            receptor=receptor,
            peptide=peptide,
            backbone_quality=float(rng.uniform(0.2, 0.35)),
        )
        designable = provisional.interface_positions()
        complex_structure = ComplexStructure(
            name=name,
            receptor=receptor,
            peptide=peptide,
            backbone_quality=provisional.backbone_quality,
            designable_positions=tuple(designable),
        )
        landscape = FitnessLandscape(
            target_name=name,
            receptor_length=receptor_length,
            designable_positions=designable,
            native_sequence=receptor_sequence,
            seed=derive_seed(target_seed, "landscape"),
        )
        targets.append(
            DesignTarget(
                name=name, complex=complex_structure, landscape=landscape, seed=target_seed
            )
        )
    return targets


def make_pdz_target(
    name: str,
    peptide_residues: str = ALPHA_SYNUCLEIN_C10,
    seed: int = 0,
    receptor_length: int = PDZ_LENGTH,
) -> DesignTarget:
    """Construct one synthetic PDZ-peptide design target.

    Parameters
    ----------
    name:
        Target name (also the complex and landscape name).
    peptide_residues:
        Peptide sequence placed in the binding groove.
    seed:
        Root seed; every target-level random choice derives from
        ``(seed, name)`` so targets are independent and reproducible.
    receptor_length:
        Number of receptor residues.
    """
    (target,) = _build_targets([name], [receptor_length], seed, peptide_residues)
    return target


def named_pdz_targets(
    seed: int = 0, peptide_residues: str = ALPHA_SYNUCLEIN_C10
) -> List[DesignTarget]:
    """The four named PDZ targets of Table I / Fig 2 (NHERF3, HTRA1, SCRIB, SHANK1)."""
    return _build_targets(
        PDZ_TARGET_NAMES, [PDZ_LENGTH] * len(PDZ_TARGET_NAMES), seed, peptide_residues
    )


def expanded_pdz_set(
    n_targets: int = 70,
    seed: int = 0,
    peptide_residues: str = ALPHA_SYNUCLEIN_C4,
) -> List[DesignTarget]:
    """The expanded target set of Fig 3 (default 70 PDZ-peptide complexes).

    Targets are named ``PDZ_001`` ... ``PDZ_NNN``; lengths vary mildly around
    the canonical PDZ size (:data:`EXPANDED_LENGTHS`) to diversify interface
    sizes.
    """
    if n_targets < 1:
        raise DatasetError("n_targets must be >= 1")
    rng = spawn_rng(seed, "expanded-set")
    lengths = [int(rng.integers(*EXPANDED_LENGTHS)) for _ in range(n_targets)]
    names = [f"PDZ_{index + 1:03d}" for index in range(n_targets)]
    return _build_targets(names, lengths, seed, peptide_residues)
