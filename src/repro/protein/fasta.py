"""FASTA formatting and parsing.

Stage 3 of the IMPRESS pipeline compiles the highest-ranking sequences into a
FASTA file that is the input of the AlphaFold stage.  This module provides
round-trip-safe FASTA text for :class:`~repro.protein.sequence.ProteinSequence`
objects, one record per chain.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import SequenceError
from repro.protein.sequence import ProteinSequence

__all__ = ["format_fasta", "parse_fasta"]

_LINE_WIDTH = 60


def format_fasta(sequences: Sequence[ProteinSequence]) -> str:
    """Render sequences as FASTA text.

    Record headers are ``>{name}|{chain_id}``; names default to
    ``chain_{chain_id}`` when empty so the output always round-trips.
    """
    lines: List[str] = []
    for sequence in sequences:
        name = sequence.name or f"chain_{sequence.chain_id}"
        lines.append(f">{name}|{sequence.chain_id}")
        residues = sequence.residues
        for start in range(0, len(residues), _LINE_WIDTH):
            lines.append(residues[start:start + _LINE_WIDTH])
    return "\n".join(lines) + "\n"


def parse_fasta(text: str) -> List[ProteinSequence]:
    """Parse FASTA text produced by :func:`format_fasta` (or plain FASTA).

    Headers without the ``|chain`` suffix get chain ids assigned in order
    (``A``, ``B``, ``C``...).

    Raises
    ------
    SequenceError
        On malformed input (sequence data before any header, empty records).
    """
    sequences: List[ProteinSequence] = []
    name: str | None = None
    chain: str | None = None
    chunks: List[str] = []
    auto_chain = iter("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

    def flush() -> None:
        nonlocal name, chain, chunks
        if name is None:
            return
        residues = "".join(chunks)
        if not residues:
            raise SequenceError(f"FASTA record {name!r} has no residues")
        sequences.append(
            ProteinSequence(residues=residues, chain_id=chain or next(auto_chain), name=name)
        )
        name, chain, chunks = None, None, []

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if "|" in header:
                name, chain = header.rsplit("|", 1)
                name = name.strip()
                chain = chain.strip() or None
            else:
                name, chain = header, None
        else:
            if name is None:
                raise SequenceError("FASTA sequence data before any header line")
            chunks.append(line)
    flush()
    return sequences

