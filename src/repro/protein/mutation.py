"""Mutation and recombination operators.

The IMPRESS genetic loop mutates via ProteinMPNN, but the extended genetic
API (:mod:`repro.core.genetic`) and the control experiments also need plain
operators: random point mutations restricted to designable positions and
uniform crossover between two parents.  Both are deterministic given a
:class:`numpy.random.Generator`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import SequenceError
from repro.protein.alphabet import AMINO_ACIDS
from repro.protein.sequence import ProteinSequence

__all__ = ["point_mutations", "crossover"]


def point_mutations(
    sequence: ProteinSequence,
    positions: Sequence[int],
    n_mutations: int,
    rng: np.random.Generator,
) -> ProteinSequence:
    """Apply ``n_mutations`` random substitutions restricted to ``positions``.

    Each chosen position receives a residue different from its current one,
    so the returned sequence always has Hamming distance ``n_mutations`` from
    the input (when ``n_mutations <= len(positions)``).

    Raises
    ------
    SequenceError
        If there are no allowed positions or ``n_mutations`` is negative.
    """
    allowed = [int(p) for p in positions]
    if not allowed:
        raise SequenceError("no positions available for mutation")
    if n_mutations < 0:
        raise SequenceError("n_mutations must be non-negative")
    if n_mutations == 0:
        return sequence
    count = min(n_mutations, len(allowed))
    chosen = rng.choice(np.array(allowed), size=count, replace=False)
    mutated = sequence
    for position in chosen:
        current = mutated[int(position)]
        alternatives = [aa for aa in AMINO_ACIDS if aa != current]
        replacement = alternatives[int(rng.integers(0, len(alternatives)))]
        mutated = mutated.with_substitution(int(position), replacement)
    return mutated


def crossover(
    parent_a: ProteinSequence,
    parent_b: ProteinSequence,
    rng: np.random.Generator,
    positions: Optional[Sequence[int]] = None,
) -> ProteinSequence:
    """Uniform crossover of two equal-length parents.

    At every position (or only at ``positions`` when given) the child takes
    the residue of parent A or parent B with equal probability; elsewhere it
    copies parent A.
    """
    if len(parent_a) != len(parent_b):
        raise SequenceError("crossover parents must have equal length")
    if parent_a.chain_id != parent_b.chain_id:
        raise SequenceError("crossover parents must belong to the same chain")
    allowed = set(int(p) for p in positions) if positions is not None else None
    residues: List[str] = []
    for index, (a, b) in enumerate(zip(parent_a.residues, parent_b.residues)):
        if allowed is not None and index not in allowed:
            residues.append(a)
            continue
        residues.append(a if rng.random() < 0.5 else b)
    return ProteinSequence(
        residues="".join(residues),
        chain_id=parent_a.chain_id,
        name=f"{parent_a.name or 'parentA'}x{parent_b.name or 'parentB'}",
    )
