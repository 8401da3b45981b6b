"""The latent sequence-fitness landscape coupling the two surrogates.

In the real system the coupling between ProteinMPNN and AlphaFold is
physical: better sequences fold into better binders and AlphaFold's
confidence metrics detect that.  The reproduction replaces the physics with a
per-target **epistatic fitness landscape**: a deterministic function from the
receptor sequence (restricted to its designable positions) to a latent
binding fitness in ``[0, 1]``.

The landscape has an additive term per designable position (correlated with
residue physico-chemical properties so similar residues score similarly) and
pairwise coupling terms between randomly chosen position pairs (epistasis,
which is what makes greedy single-mutation search insufficient and adaptive
multi-cycle protocols worthwhile).  Both surrogates consult the same
landscape:

* the ProteinMPNN surrogate *partially* observes it (the additive term only),
  so its log-likelihood ranking is informative but imperfect;
* the AlphaFold surrogate observes the full fitness and converts it into
  pLDDT / pTM / inter-chain pAE with calibrated noise.

This reproduces the statistical relationship the protocol exploits without
any claim of biological realism.

Performance architecture
------------------------
Evaluation is batch-first: couplings live in a packed ``(n_pairs, 20, 20)``
tensor (plus local pair-index arrays) rather than a dict of matrices, the
designable-position gather index is precomputed, and
:meth:`FitnessLandscape.fitness_batch` / :meth:`partial_score_batch` score an
encoded ``(B, L)`` matrix with a handful of NumPy gathers — no per-residue
Python.  The scalar entry points are thin wrappers over the same tensors;
scalar and batch results agree to float rounding (NumPy's reduction blocking
varies with batch shape, so agreement is ~1e-14, far inside the 1e-9
equivalence bound the tests pin).

What the ProteinMPNN surrogate reads on every call is built once, at
construction: :meth:`FitnessLandscape.additive_logits`, the additive matrix
less each row's maximum, which it scales by its inverse temperature.  It
scores the designs it has just built through ``_partial_scores``, the core
:meth:`~FitnessLandscape.partial_score_batch` calls after validating its
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ProteinError, SequenceError
from repro.protein.alphabet import AMINO_ACIDS, property_matrix
from repro.protein.sequence import ProteinSequence, check_encoded
from repro.utils.rng import spawn_rng

__all__ = ["FitnessLandscape"]

_N_AA = len(AMINO_ACIDS)

#: Fraction of designable position pairs that receive an epistatic coupling
#: term, and the coupling terms' scale relative to the additive terms'.
_COUPLING_DENSITY = 0.30
_EPISTASIS_STRENGTH = 1.6

#: The z-scored residue properties, shared read-only by every landscape.
_PROPERTIES = property_matrix()
_PROPERTIES.flags.writeable = False

#: Types accepted by the batch entry points: a pre-encoded ``(B, L)`` integer
#: matrix or a sequence of :class:`ProteinSequence` objects.
BatchInput = Union[np.ndarray, Sequence[ProteinSequence]]


@dataclass(frozen=True)
class _Calibration:
    offset: float
    scale: float


class FitnessLandscape:
    """Per-target epistatic landscape over designable receptor positions.

    Parameters
    ----------
    target_name:
        Name of the design target this landscape belongs to.
    receptor_length:
        Length of the receptor chain (used only for validation).
    designable_positions:
        Receptor positions whose identity affects fitness.
    native_sequence:
        The starting receptor sequence; calibration anchors its fitness to a
        modest value so there is room for improvement.
    seed:
        Seed controlling the landscape parameters.
    """

    def __init__(
        self,
        target_name: str,
        receptor_length: int,
        designable_positions: Sequence[int],
        native_sequence: ProteinSequence,
        seed: int = 0,
    ) -> None:
        if receptor_length < 1:
            raise ProteinError("receptor_length must be >= 1")
        if len(native_sequence) != receptor_length:
            raise ProteinError(
                "native sequence length does not match receptor_length"
            )
        positions = sorted(set(int(p) for p in designable_positions))
        if not positions:
            raise ProteinError("landscape needs at least one designable position")
        if positions[0] < 0 or positions[-1] >= receptor_length:
            raise ProteinError("designable positions outside the receptor")

        self.target_name = target_name
        self.receptor_length = receptor_length
        self.designable_positions: Tuple[int, ...] = tuple(positions)
        self.native_sequence = native_sequence
        self.seed = seed

        rng = spawn_rng(seed, "landscape", target_name)
        properties = _PROPERTIES  # (20, 3)
        n_pos = len(positions)

        # Additive term: a per-position preference vector over residue
        # properties plus idiosyncratic noise.
        weights = rng.normal(scale=1.0, size=(n_pos, properties.shape[1]))
        additive = weights @ properties.T  # (n_pos, 20)
        additive += rng.normal(scale=0.35, size=additive.shape)
        self._additive = additive
        self._additive_logits = additive - additive.max(axis=1, keepdims=True)
        self._additive_logits.flags.writeable = False

        # Epistatic couplings between a random subset of position pairs,
        # packed into one (n_pairs, 20, 20) tensor plus local index arrays so
        # batch evaluation is a single fancy-index gather.
        pairs: List[Tuple[int, int]] = []
        matrices: List[np.ndarray] = []
        for a in range(n_pos):
            for b in range(a + 1, n_pos):
                if rng.random() < _COUPLING_DENSITY:
                    matrices.append(
                        rng.normal(scale=_EPISTASIS_STRENGTH, size=(_N_AA, _N_AA))
                    )
                    pairs.append((a, b))
        self._pairs = pairs
        if pairs:
            self._coupling_tensor = np.stack(matrices)  # (n_pairs, 20, 20)
            pair_array = np.asarray(pairs, dtype=np.int64)
            self._pair_a = pair_array[:, 0]
            self._pair_b = pair_array[:, 1]
        else:
            self._coupling_tensor = np.zeros((0, _N_AA, _N_AA))
            self._pair_a = np.zeros(0, dtype=np.int64)
            self._pair_b = np.zeros(0, dtype=np.int64)
        self._pair_range = np.arange(len(pairs))

        # Precomputed gather indices for the hot paths.
        self._designable_index = np.asarray(positions, dtype=np.int64)
        self._local_range = np.arange(n_pos)

        self._position_index = {pos: i for i, pos in enumerate(positions)}
        self._calibration = self._calibrate()

    # -- construction helpers ------------------------------------------------ #

    def _raw_score(self, encoded: np.ndarray) -> float:
        """Unnormalised score of an encoded receptor sequence.

        Same gathers as the batch kernel, specialised to one sequence;
        results agree with :meth:`_raw_score_batch` to float rounding.
        """
        idx = encoded[self._designable_index]
        score = self._additive[self._local_range, idx].sum()
        score += self._coupling_tensor[
            self._pair_range, idx[self._pair_a], idx[self._pair_b]
        ].sum()
        return float(score)

    def _raw_score_batch(self, encoded: np.ndarray) -> np.ndarray:
        """Unnormalised scores of an encoded ``(B, L)`` batch, shape ``(B,)``."""
        idx = encoded[:, self._designable_index]  # (B, n_pos)
        additive = self._additive[self._local_range, idx].sum(axis=1)
        coupling = self._coupling_tensor[
            self._pair_range, idx[:, self._pair_a], idx[:, self._pair_b]
        ].sum(axis=1)
        return additive + coupling

    def _greedy_additive_optimum(self) -> float:
        """Raw score of the sequence maximizing each additive term independently."""
        encoded = self.native_sequence.encode().copy()
        encoded[self._designable_index] = self._additive.argmax(axis=1)
        return self._raw_score(encoded)

    def _calibrate(self) -> _Calibration:
        native_raw = self._raw_score(self.native_sequence.encode())
        optimum_raw = self._greedy_additive_optimum()
        span = optimum_raw - native_raw
        if span <= 1e-9:
            span = max(1.0, abs(native_raw) * 0.1)
        offset = native_raw + 0.25 * span
        scale = span / 4.0
        return _Calibration(offset=offset, scale=scale)

    def _encode_batch(self, sequences: BatchInput) -> np.ndarray:
        """Normalise batch input to an encoded ``(B, L)`` integer matrix."""
        if isinstance(sequences, np.ndarray):
            encoded = np.atleast_2d(sequences)
            if encoded.shape[1] != self.receptor_length:
                raise SequenceError(
                    f"encoded batch width {encoded.shape[1]} does not match "
                    f"receptor length {self.receptor_length}"
                )
            check_encoded(encoded)
            return encoded
        rows = []
        for sequence in sequences:
            if len(sequence) != self.receptor_length:
                raise SequenceError(
                    f"sequence length {len(sequence)} does not match receptor "
                    f"length {self.receptor_length}"
                )
            rows.append(sequence.encode())
        if not rows:
            return np.zeros((0, self.receptor_length), dtype=np.int64)
        return np.stack(rows)

    # -- public API ------------------------------------------------------------ #

    def fitness(self, sequence: ProteinSequence) -> float:
        """Latent binding fitness of a receptor sequence, in ``[0, 1]``.

        Thin scalar wrapper over the packed-tensor evaluation used by
        :meth:`fitness_batch`; both paths agree to float rounding.

        Raises
        ------
        SequenceError
            If the sequence length does not match the receptor.
        """
        if len(sequence) != self.receptor_length:
            raise SequenceError(
                f"sequence length {len(sequence)} does not match receptor "
                f"length {self.receptor_length}"
            )
        raw = self._raw_score(sequence.encode())
        z = (raw - self._calibration.offset) / self._calibration.scale
        try:
            return 1.0 / (1.0 + math.exp(-z))
        except OverflowError:
            return 0.0

    def fitness_batch(self, sequences: BatchInput) -> np.ndarray:
        """Latent fitness of a whole batch in one vectorized evaluation.

        Parameters
        ----------
        sequences:
            Either an already-encoded integer matrix of shape ``(B, L)``
            (indices into the canonical alphabet) or an iterable of
            :class:`ProteinSequence` objects.

        Returns
        -------
        numpy.ndarray
            Fitness values in ``[0, 1]``, shape ``(B,)``.
        """
        encoded = self._encode_batch(sequences)
        raw = self._raw_score_batch(encoded)
        z = (raw - self._calibration.offset) / self._calibration.scale
        # exp overflow for extreme z saturates to 0.0, matching the scalar path.
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))

    def additive_profile(self, position: int) -> np.ndarray:
        """Additive preference vector (length 20) for a designable position."""
        try:
            local = self._position_index[int(position)]
        except KeyError:
            raise ProteinError(
                f"position {position} is not designable for target "
                f"{self.target_name!r}"
            ) from None
        return self._additive[local].copy()

    def additive_logits(self) -> np.ndarray:
        """Additive matrix less each row's maximum, shape ``(n_designable, 20)``.

        Row order follows :attr:`designable_positions`; every entry is at
        most 0.0, and each row holds a 0.0.  Times an inverse temperature,
        these are the logits of the ProteinMPNN surrogate's sampling
        softmax.  Built once at construction and read-only.
        """
        return self._additive_logits

    def partial_score(self, sequence: ProteinSequence) -> float:
        """Additive-only score — what the ProteinMPNN surrogate 'sees'.

        Normalised by the same calibration as :meth:`fitness` but without the
        coupling terms, so it correlates with fitness without equalling it.
        """
        if len(sequence) != self.receptor_length:
            raise SequenceError("sequence length mismatch")
        idx = sequence.encode()[self._designable_index]
        raw = self._additive[self._local_range, idx].sum()
        return float((raw - self._calibration.offset) / self._calibration.scale)

    def partial_score_batch(self, sequences: BatchInput) -> np.ndarray:
        """Additive-only scores of a whole batch, shape ``(B,)``."""
        return self._partial_scores(self._encode_batch(sequences))

    def _partial_scores(self, encoded: np.ndarray) -> np.ndarray:
        """:meth:`partial_score_batch` of an encoded matrix it would accept.

        The caller guarantees what ``_encode_batch`` checks: an integer
        ``(B, receptor_length)`` matrix of indices in ``[0, 20)``.
        """
        idx = encoded[:, self._designable_index]
        raw = self._additive[self._local_range, idx].sum(axis=1)
        return (raw - self._calibration.offset) / self._calibration.scale
