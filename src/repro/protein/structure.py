"""Coarse-grained protein structures and two-chain complexes.

The reproduction represents structures at the CA (alpha-carbon) level: one
3-D coordinate per residue.  That is enough to support everything the
protocol touches — interface detection (which positions ProteinMPNN is
allowed to design), contact-based scoring, and a latent
``backbone_quality`` scalar that the folding surrogate updates each cycle
(standing in for the refined backbone AlphaFold feeds back into the next
ProteinMPNN round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import StructureError
from repro.protein.sequence import ProteinSequence

__all__ = ["Chain", "ComplexStructure", "synthetic_backbone", "synthetic_backbones"]

#: Ideal CA-CA distance along a protein chain, in angstroms.
CA_CA_DISTANCE = 3.8

#: CA-CA distance (angstroms) within which a receptor residue is at the
#: interface, and so designable.
_INTERFACE_CUTOFF = 10.0


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded exactly as ``np.linalg.norm(row)``.

    ``np.linalg.norm`` of a vector is ``sqrt(x.dot(x))``, a BLAS ``ddot``;
    ``np.vecdot`` reaches the same kernel row by row, whereas ``einsum`` and
    ``(rows * rows).sum(1)`` can round differently.
    """
    return np.sqrt(np.vecdot(rows, rows))


def synthetic_backbones(
    lengths: Sequence[int], seeds: Sequence[int], compactness: float = 0.45
) -> List[np.ndarray]:
    """Generate one synthetic, compact CA trace per ``(length, seed)`` pair.

    Each trace is a correlated random walk with fixed CA-CA step length and
    a weak pull toward its running centroid, which yields globular,
    protein-like point clouds without any physics.  Trace ``k`` draws only
    from ``default_rng(seeds[k])`` (its first direction, then every wobble),
    so it is the same in any batch, alone or with others.

    The walks advance in lockstep, longest first, and each step is one NumPy
    operation over the walks still growing.  Each step rounds exactly as a
    per-residue loop over one walk: the centroid is a running sum, adding
    rows in the order ``coords[:i].mean(axis=0)`` does, and each norm is the
    BLAS ``ddot`` that ``np.linalg.norm`` takes (see :func:`_row_norms`).
    The traces are therefore identical across hosts only when their BLAS
    ``ddot`` kernels round alike: with OpenBLAS 0.3.31, the traces of its
    SkylakeX kernel differ in the last bits from those of its Haswell and
    Sandybridge kernels.

    Parameters
    ----------
    lengths:
        Number of residues of each trace.
    seeds:
        RNG seed controlling each trace's fold.
    compactness:
        Strength of the centroid pull in ``[0, 1)``; higher is more globular.

    Returns
    -------
    list of numpy.ndarray
        One ``(lengths[k], 3)`` array of CA coordinates in angstroms per
        trace, in input order.
    """
    if len(lengths) != len(seeds):
        raise StructureError("need exactly one seed per backbone length")
    if any(length < 1 for length in lengths):
        raise StructureError("backbone length must be >= 1")
    if not 0.0 <= compactness < 1.0:
        raise StructureError("compactness must lie in [0, 1)")
    if not lengths:
        return []
    # Longest first: the walks still growing at any step are a prefix.
    order = sorted(range(len(lengths)), key=lambda k: -lengths[k])
    walk_lengths = np.array([lengths[k] for k in order])
    longest = int(walk_lengths[0])
    coords = np.zeros((len(order), longest, 3))
    direction = np.empty((len(order), 3))
    wobbles = np.zeros((len(order), longest - 1, 3))
    for row, k in enumerate(order):
        rng = np.random.default_rng(seeds[k])
        direction[row] = rng.normal(size=3)
        wobbles[row, : lengths[k] - 1] = rng.normal(scale=0.9, size=(lengths[k] - 1, 3))
    direction /= _row_norms(direction)[:, None]
    running_sum = np.zeros((len(order), 3))
    for index in range(1, longest):
        active = int(np.count_nonzero(walk_lengths > index))
        previous = coords[:active, index - 1]
        running_sum[:active] += previous
        pull = running_sum[:active] / index - previous
        norm = _row_norms(pull)
        far = norm > 1e-9
        pull[far] /= norm[far, None]
        step = direction[:active] + wobbles[:active, index - 1] + compactness * pull
        step /= _row_norms(step)[:, None]
        direction[:active] = step
        coords[:active, index] = previous + CA_CA_DISTANCE * step
    rows = {k: row for row, k in enumerate(order)}
    return [coords[rows[k], :length] for k, length in enumerate(lengths)]


def synthetic_backbone(
    length: int,
    seed: int,
    compactness: float = 0.45,
    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> np.ndarray:
    """Generate a synthetic, compact CA trace of ``length`` residues.

    One walk of :func:`synthetic_backbones`, translated by ``origin``.
    Deterministic in ``seed``.

    Parameters
    ----------
    length:
        Number of residues.
    seed:
        RNG seed controlling the fold.
    compactness:
        Strength of the centroid pull in ``[0, 1)``; higher is more globular.
    origin:
        Translation applied to the whole trace.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(length, 3)`` with CA coordinates in angstroms.
    """
    (trace,) = synthetic_backbones([length], [seed], compactness)
    return trace + np.asarray(origin, dtype=float)


@dataclass(frozen=True)
class Chain:
    """One chain: a sequence plus its CA coordinates."""

    sequence: ProteinSequence
    coordinates: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise StructureError(
                f"coordinates must have shape (L, 3), got {coords.shape}"
            )
        if coords.shape[0] != len(self.sequence):
            raise StructureError(
                f"chain {self.sequence.chain_id!r}: {len(self.sequence)} residues "
                f"but {coords.shape[0]} coordinates"
            )
        object.__setattr__(self, "coordinates", coords)

    @property
    def chain_id(self) -> str:
        return self.sequence.chain_id

    def __len__(self) -> int:
        return len(self.sequence)

    def centroid(self) -> np.ndarray:
        """Geometric centre of the chain."""
        return self.coordinates.mean(axis=0)

    def radius_of_gyration(self) -> float:
        """Root-mean-square distance of residues from the centroid."""
        deltas = self.coordinates - self.centroid()
        return float(np.sqrt((deltas ** 2).sum(axis=1).mean()))

    def with_sequence(self, sequence: ProteinSequence) -> "Chain":
        """Copy of the chain carrying a different (equal-length) sequence."""
        if len(sequence) != len(self.sequence):
            raise StructureError(
                "replacement sequence must have the same length as the chain"
            )
        return Chain(sequence=sequence, coordinates=self.coordinates)


@dataclass(frozen=True)
class ComplexStructure:
    """A receptor/peptide complex at CA resolution.

    Attributes
    ----------
    name:
        Complex label (e.g. ``"NHERF3_asyn"``).
    receptor / peptide:
        The two chains; the receptor is the design target, the peptide is
        fixed.
    backbone_quality:
        Latent scalar in ``[0, 1]`` describing how well the current backbone
        supports the target interaction.  The folding surrogate updates it
        every cycle; the ProteinMPNN surrogate conditions its sampling on it.
    designable_positions:
        Receptor positions ProteinMPNN may redesign (the interface by
        default).  Stored as a sorted tuple for hashability.
    """

    name: str
    receptor: Chain
    peptide: Chain
    backbone_quality: float = 0.3
    designable_positions: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise StructureError("complex needs a non-empty name")
        if self.receptor.chain_id == self.peptide.chain_id:
            raise StructureError("receptor and peptide must use distinct chain ids")
        if not 0.0 <= self.backbone_quality <= 1.0:
            raise StructureError("backbone_quality must lie in [0, 1]")
        positions = tuple(sorted(set(int(p) for p in self.designable_positions)))
        # Positions are sorted, so bounds-checking the extremes covers them all.
        if positions and (positions[0] < 0 or positions[-1] >= len(self.receptor)):
            offending = positions[0] if positions[0] < 0 else positions[-1]
            raise StructureError(
                f"designable position {offending} outside receptor length "
                f"{len(self.receptor)}"
            )
        object.__setattr__(self, "designable_positions", positions)

    def with_design(
        self, sequence: ProteinSequence, backbone_quality: float
    ) -> "ComplexStructure":
        """Copy of the complex carrying a designed receptor sequence.

        Equal, field for field, to ``dataclasses.replace(self,
        receptor=self.receptor.with_sequence(sequence),
        backbone_quality=backbone_quality)``, but only the two fields that
        change are checked: every other field is this complex's own, which
        its construction checked.  Both chains keep their coordinate arrays
        by identity, so a design shares its target's scoring-memo entry.

        Raises
        ------
        StructureError
            If ``sequence`` differs in length from the receptor or has the
            peptide's chain id, or ``backbone_quality`` is outside
            ``[0, 1]``.
        """
        receptor = self.receptor
        if len(sequence) != len(receptor.sequence):
            raise StructureError(
                "replacement sequence must have the same length as the chain"
            )
        if sequence.chain_id == self.peptide.chain_id:
            raise StructureError("receptor and peptide must use distinct chain ids")
        if not 0.0 <= backbone_quality <= 1.0:
            raise StructureError("backbone_quality must lie in [0, 1]")
        chain = object.__new__(Chain)
        object.__setattr__(chain, "sequence", sequence)
        object.__setattr__(chain, "coordinates", receptor.coordinates)
        design = object.__new__(ComplexStructure)
        object.__setattr__(design, "name", self.name)
        object.__setattr__(design, "receptor", chain)
        object.__setattr__(design, "peptide", self.peptide)
        object.__setattr__(design, "backbone_quality", backbone_quality)
        object.__setattr__(design, "designable_positions", self.designable_positions)
        return design

    # -- geometry -------------------------------------------------------------- #

    @property
    def total_residues(self) -> int:
        return len(self.receptor) + len(self.peptide)

    def interchain_distances(self) -> np.ndarray:
        """CA-CA distances, one row per receptor residue and one column per
        peptide residue, in angstroms."""
        deltas = (
            self.receptor.coordinates[:, None, :] - self.peptide.coordinates[None, :, :]
        )
        return np.sqrt((deltas ** 2).sum(axis=2))

    def interface_positions(self) -> List[int]:
        """Receptor positions with a CA within 10 angstroms of the peptide."""
        mask = (self.interchain_distances() < _INTERFACE_CUTOFF).any(axis=1)
        return [int(index) for index in np.nonzero(mask)[0]]
