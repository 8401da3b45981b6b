"""Protein sequences and scored sequences.

:class:`ProteinSequence` is an immutable value object (chain id + residue
string) with the small set of operations the protocol needs: validation,
point substitution, Hamming distance and identity.  :func:`decode_batch`
builds a whole batch of sequences from an encoded index matrix.
:class:`ScoredSequence` pairs a sequence with the surrogate ProteinMPNN
log-likelihood used by the ranking stage.

The public constructors validate what they are given.  The surrogate
ProteinMPNN builds every design from values it has just made valid, so it
calls the trusted cores (:func:`_decode_rows`, ``ScoredSequence._trusted``)
that the public entry points call after their checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Sequence

import numpy as np

from repro.exceptions import SequenceError
from repro.protein.alphabet import AA_TO_INDEX, AMINO_ACIDS, is_valid_sequence

__all__ = ["ProteinSequence", "ScoredSequence", "check_encoded", "decode_batch"]

#: ASCII code of each residue letter, indexed by residue index.
_LETTER_CODES = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)

#: The key :meth:`ScoredSequence.rank` sorts by.
_LOG_LIKELIHOOD = attrgetter("log_likelihood")


@dataclass(frozen=True)
class ProteinSequence:
    """An immutable amino-acid sequence belonging to one chain.

    Attributes
    ----------
    residues:
        One-letter amino-acid string.
    chain_id:
        Chain identifier within its complex (``"A"`` for the receptor,
        ``"B"`` for the peptide by convention in this package).
    name:
        Optional human-readable label (e.g. ``"NHERF3_design_003"``).
    """

    residues: str
    chain_id: str = "A"
    name: str = ""

    def __post_init__(self) -> None:
        if not is_valid_sequence(self.residues):
            raise SequenceError(
                f"invalid residues in sequence {self.name or self.chain_id!r}: "
                f"{self.residues!r}"
            )
        if not self.chain_id:
            raise SequenceError("chain_id must be non-empty")

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self):
        return iter(self.residues)

    def __getitem__(self, index: int) -> str:
        return self.residues[index]

    # -- operations ---------------------------------------------------------- #

    @staticmethod
    def _trusted(residues: str, chain_id: str, name: str) -> "ProteinSequence":
        """Build a sequence without re-running O(L) residue validation.

        Only for internal use on residue strings already proven valid (the
        mutation helper validates the substituted residue, the batch decoder
        its whole index matrix), so skipping the per-residue scan preserves
        the class invariant.
        """
        sequence = object.__new__(ProteinSequence)
        object.__setattr__(sequence, "residues", residues)
        object.__setattr__(sequence, "chain_id", chain_id)
        object.__setattr__(sequence, "name", name)
        return sequence

    def with_substitution(self, position: int, residue: str) -> "ProteinSequence":
        """Return a copy with ``position`` replaced by ``residue``.

        Raises
        ------
        SequenceError
            If the position is out of range or the residue is not canonical.
        """
        if not 0 <= position < len(self.residues):
            raise SequenceError(
                f"position {position} out of range for length {len(self.residues)}"
            )
        if residue not in AA_TO_INDEX:
            raise SequenceError(f"invalid residue {residue!r}")
        residues = self.residues[:position] + residue + self.residues[position + 1:]
        copy = self._trusted(residues, self.chain_id, self.name)
        cached = getattr(self, "_encoded", None)
        if cached is not None:
            # Derive the copy's cached encoding from this one's.
            encoded = cached.copy()
            encoded[position] = AA_TO_INDEX[residue]
            encoded.flags.writeable = False
            object.__setattr__(copy, "_encoded", encoded)
        return copy

    def encode(self) -> np.ndarray:
        """Integer encoding (indices into :data:`AMINO_ACIDS`), shape ``(L,)``.

        The encoding is computed once and memoised on the (immutable)
        sequence; the returned array is marked read-only because it is shared
        between callers — ``.copy()`` it before mutating.
        """
        cached = getattr(self, "_encoded", None)
        if cached is None:
            cached = np.fromiter(
                (AA_TO_INDEX[residue] for residue in self.residues),
                dtype=np.int64,
                count=len(self.residues),
            )
            cached.flags.writeable = False
            object.__setattr__(self, "_encoded", cached)
        return cached


def check_encoded(encoded: np.ndarray) -> None:
    """Raise :class:`SequenceError` unless ``encoded`` holds only alphabet indices."""
    if not np.issubdtype(encoded.dtype, np.integer):
        raise SequenceError(f"encoded batch must be integer-typed, got {encoded.dtype}")
    if encoded.size and (
        int(encoded.min()) < 0 or int(encoded.max()) >= len(AMINO_ACIDS)
    ):
        raise SequenceError(
            f"encoded batch contains indices outside [0, {len(AMINO_ACIDS)})"
        )


def decode_batch(
    encoded: np.ndarray, chain_id: str, names: Sequence[str]
) -> List[ProteinSequence]:
    """One sequence per row of an encoded ``(B, L)`` index matrix.

    The whole matrix is validated and translated to letters at once.  Each
    sequence caches its own read-only copy of its row as its encoding; a
    view would keep the whole matrix alive for as long as any one sequence
    survives.

    Raises
    ------
    SequenceError
        If the matrix is not a non-empty-width integer matrix with one row
        per name, holds an index outside the alphabet, or ``chain_id`` is
        empty.
    """
    if encoded.ndim != 2 or encoded.shape[1] == 0 or len(names) != len(encoded):
        raise SequenceError(
            f"need a (B, L) matrix with one row per name, got shape "
            f"{encoded.shape} for {len(names)} names"
        )
    check_encoded(encoded)
    if not chain_id:
        raise SequenceError("chain_id must be non-empty")
    return _decode_rows(encoded, chain_id, names)


def _decode_rows(
    encoded: np.ndarray, chain_id: str, names: Sequence[str]
) -> List[ProteinSequence]:
    """:func:`decode_batch` for a matrix and chain id it would accept.

    The caller guarantees what :func:`decode_batch` checks: a ``(B, L)``
    integer matrix with ``L >= 1``, one row per name, every index in
    ``[0, 20)``, and a non-empty ``chain_id``.
    """
    width = encoded.shape[1]
    letters = _LETTER_CODES[encoded].tobytes().decode("ascii")
    sequences = []
    for index, name in enumerate(names):
        sequence = ProteinSequence._trusted(
            letters[index * width:(index + 1) * width], chain_id, name
        )
        row = encoded[index].astype(np.int64)
        row.setflags(write=False)
        object.__setattr__(sequence, "_encoded", row)
        sequences.append(sequence)
    return sequences


@dataclass(frozen=True)
class ScoredSequence:
    """A designed sequence with its generator log-likelihood.

    The ranking stage (Stage 2 of the IMPRESS pipeline) sorts candidate
    sequences by this score; higher is better.
    """

    sequence: ProteinSequence
    log_likelihood: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_likelihood):
            raise SequenceError("log_likelihood must be finite")

    @staticmethod
    def _trusted(sequence: ProteinSequence, log_likelihood: float) -> "ScoredSequence":
        """Build a scored sequence without the finiteness check.

        Only for a ``log_likelihood`` already checked finite, so skipping
        the check preserves the class invariant.
        """
        scored = object.__new__(ScoredSequence)
        object.__setattr__(scored, "sequence", sequence)
        object.__setattr__(scored, "log_likelihood", log_likelihood)
        return scored

    @staticmethod
    def rank(candidates: Sequence["ScoredSequence"]) -> List["ScoredSequence"]:
        """Return candidates sorted by decreasing log-likelihood, as a new list.

        ``sorted(..., reverse=True)`` is stable: candidates with equal
        scores, ``0.0`` and ``-0.0`` included, keep their input order, the
        order a stable ``argsort`` of the negated scores gives.  Every score
        is finite, so the order is total.
        """
        return sorted(candidates, key=_LOG_LIKELIHOOD, reverse=True)
