"""Surrogate AlphaFold: structure prediction with confidence metrics.

The real AlphaFold2 performs an expensive MSA/feature phase followed by GPU
inference, then reports pLDDT, pTM and the predicted aligned error.  The
surrogate consumes a receptor sequence through the target's fitness landscape
and converts the latent fitness into the three confidence metrics with
calibrated noise, and returns a "refined" complex whose ``backbone_quality``
equals the achieved fitness — closing the loop that lets the next
ProteinMPNN round benefit from a better backbone.

Two MSA modes are modelled after the paper's Related Work discussion: the
default ``"full_msa"`` mode (IMPRESS) has low metric noise; the
``"single_sequence"`` mode (EvoPro-style) scales every metric's noise by 2.5,
degrading the classifier quality of the metrics.  The duration model does
not see the mode: both take the same simulated time.

Each prediction builds its result once.  pTM is the largest of five noisy
draws, clamped to ``[0.01, 0.99]`` in Python floats, and the refined complex
comes from :meth:`~repro.protein.structure.ComplexStructure.with_design`,
which checks only the receptor sequence and backbone quality it installs and
keeps both chains' coordinate arrays, the key of the scoring memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, ProteinError
from repro.protein.landscape import FitnessLandscape
from repro.protein.metrics import QualityMetrics
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import ComplexStructure
from repro.utils.rng import KeyedStreams

__all__ = ["MSA_MODES", "FoldingResult", "SurrogateAlphaFold"]

#: Supported surrogate-AlphaFold MSA modes.
MSA_MODES = ("full_msa", "single_sequence")

#: Models predicted per call; the best by pTM is returned, which slightly
#: tightens the noise (AlphaFold's model ranking in the pipeline's Stage 4).
_N_MODELS = 5
#: Base noise scales of pLDDT, pTM and inter-chain pAE in ``full_msa`` mode.
_PLDDT_NOISE = 3.0
_PTM_NOISE = 0.035
_PAE_NOISE = 1.4
#: Multiplier applied to every noise scale in ``single_sequence`` mode.
_SINGLE_SEQUENCE_NOISE_FACTOR = 2.5


@dataclass(frozen=True)
class FoldingResult:
    """Outcome of one structure prediction."""

    metrics: QualityMetrics
    structure: ComplexStructure
    fitness: float


class SurrogateAlphaFold:
    """Predicts complex quality metrics from the latent landscape.

    ``msa_mode`` is ``"full_msa"`` (default, low-noise) or
    ``"single_sequence"`` (EvoPro-style: 2.5 times the metric noise, in the
    same simulated time).

    One instance per campaign, not shared across threads: every prediction
    draws its noise from the one reused generator of
    :class:`~repro.utils.rng.KeyedStreams`.
    """

    def __init__(self, msa_mode: str = "full_msa", seed: int = 0) -> None:
        if msa_mode not in MSA_MODES:
            raise ConfigurationError(
                f"msa_mode must be one of {MSA_MODES}, got {msa_mode!r}"
            )
        self._msa_mode = msa_mode
        self._noise_factor = (
            _SINGLE_SEQUENCE_NOISE_FACTOR if msa_mode == "single_sequence" else 1.0
        )
        self._streams = KeyedStreams(seed, "folding")

    @property
    def msa_mode(self) -> str:
        return self._msa_mode

    def predict(
        self,
        complex_structure: ComplexStructure,
        landscape: FitnessLandscape,
        sequence: Optional[ProteinSequence] = None,
        *,
        stream: Sequence[object] = (),
    ) -> FoldingResult:
        """Predict the structure quality of ``sequence`` in the complex.

        Parameters
        ----------
        complex_structure:
            The complex providing the backbone and the peptide chain.
        landscape:
            The target's fitness landscape.
        sequence:
            Receptor sequence to evaluate; defaults to the complex's current
            receptor sequence.
        stream:
            Extra RNG-stream keys (pipeline uid, cycle, retry index) so
            repeated evaluations of the same sequence in different contexts
            are independent draws.

        Returns
        -------
        FoldingResult
            Metrics, the refined complex (receptor sequence installed and
            ``backbone_quality`` set to the achieved fitness) and the latent
            fitness itself (exposed for analysis, never used by the
            protocol).
        """
        target_sequence = sequence or complex_structure.receptor.sequence
        if len(target_sequence) != landscape.receptor_length:
            raise ProteinError("sequence length does not match the landscape")

        fitness = landscape.fitness(target_sequence)
        return self._result_from_fitness(
            complex_structure, target_sequence, fitness, stream
        )

    def predict_batch(
        self,
        complex_structures: Union[ComplexStructure, Sequence[ComplexStructure]],
        landscape: Union[FitnessLandscape, Sequence[FitnessLandscape]],
        sequences: Sequence[ProteinSequence],
        *,
        streams: Optional[Sequence[Sequence[object]]] = None,
    ) -> List[FoldingResult]:
        """Predict a whole population of designs in one landscape evaluation.

        The latent fitness of every design is computed with one
        :meth:`FitnessLandscape.fitness_batch` call per distinct landscape
        and the metric means are derived with vectorized arithmetic; each
        design's metric *noise* is still drawn from its own named RNG stream,
        so every returned result matches the corresponding scalar
        :meth:`predict` call (identical RNG draws; metric values agree to
        float rounding).

        Parameters
        ----------
        complex_structures:
            Either one complex shared by the whole batch or one complex per
            design (the genetic optimizer evaluates children against their
            parent's structure).
        landscape:
            Either one fitness landscape shared by the whole batch or one
            landscape per design (the campaign folds its whole target cohort
            through one call for the iteration-0 baseline).
        sequences:
            Receptor sequences to evaluate, one per design.
        streams:
            Optional per-design RNG stream keys, aligned with ``sequences``.
        """
        sequences = list(sequences)
        if isinstance(complex_structures, ComplexStructure):
            structures: List[ComplexStructure] = [complex_structures] * len(sequences)
        else:
            structures = list(complex_structures)
        if len(structures) != len(sequences):
            raise ConfigurationError(
                "predict_batch needs one complex per sequence (or a single "
                "complex shared by the batch)"
            )
        if isinstance(landscape, FitnessLandscape):
            landscapes: List[FitnessLandscape] = [landscape] * len(sequences)
        else:
            landscapes = list(landscape)
        if len(landscapes) != len(sequences):
            raise ConfigurationError(
                "predict_batch needs one landscape per sequence (or a single "
                "landscape shared by the batch)"
            )
        if streams is None:
            stream_list: List[Sequence[object]] = [()] * len(sequences)
        else:
            stream_list = list(streams)
            if len(stream_list) != len(sequences):
                raise ConfigurationError(
                    "predict_batch needs one stream per sequence"
                )
        for sequence, design_landscape in zip(sequences, landscapes):
            if len(sequence) != design_landscape.receptor_length:
                raise ProteinError("sequence length does not match the landscape")

        # One fitness_batch call per distinct landscape, scattered back to
        # per-design order (a shared landscape stays a single call).
        fitness_values = np.empty(len(sequences), dtype=float)
        groups: dict = {}
        for index, design_landscape in enumerate(landscapes):
            groups.setdefault(id(design_landscape), (design_landscape, []))[1].append(
                index
            )
        for design_landscape, indices in groups.values():
            batch = design_landscape.fitness_batch([sequences[i] for i in indices])
            fitness_values[indices] = batch
        return [
            self._result_from_fitness(structure, sequence, float(fitness), stream)
            for structure, sequence, fitness, stream in zip(
                structures, sequences, fitness_values, stream_list
            )
        ]

    def _result_from_fitness(
        self,
        complex_structure: ComplexStructure,
        target_sequence: ProteinSequence,
        fitness: float,
        stream: Sequence[object],
    ) -> FoldingResult:
        """Convert a latent fitness into noisy metrics and a refined complex."""
        rng = self._streams.stream(
            complex_structure.name, target_sequence.residues, *stream
        )
        factor = self._noise_factor

        # Predict several models and keep the best by pTM: the max of a few
        # noisy draws, matching AlphaFold's "rank by pTM, return best" step.
        # Clamping is monotone, so the clamped max is the max of the clamped
        # draws.
        ptm_means = 0.35 + 0.60 * fitness
        ptm_draws = ptm_means + rng.normal(scale=_PTM_NOISE * factor, size=_N_MODELS)
        ptm = min(max(max(ptm_draws.tolist()), 0.01), 0.99)

        plddt = min(
            max(
                55.0 + 42.0 * fitness + float(rng.normal(scale=_PLDDT_NOISE * factor)),
                30.0,
            ),
            98.5,
        )
        interchain_pae = min(
            max(
                22.0 - 16.0 * fitness + float(rng.normal(scale=_PAE_NOISE * factor)),
                1.5,
            ),
            31.5,
        )

        metrics = QualityMetrics(plddt=plddt, ptm=ptm, interchain_pae=interchain_pae)
        receptor_chain_id = complex_structure.receptor.chain_id
        if target_sequence.chain_id == receptor_chain_id:
            refined_sequence = target_sequence
        else:
            # Same residues, already validated: only the chain id changes.
            refined_sequence = ProteinSequence._trusted(
                target_sequence.residues, receptor_chain_id, target_sequence.name
            )
        # The refined complex keeps the input's coordinate arrays (the scoring
        # memo is keyed by them).  The clamp keeps the quality in [0, 1].
        refined = complex_structure.with_design(
            refined_sequence, min(max(float(fitness), 0.0), 1.0)
        )
        return FoldingResult(metrics=metrics, structure=refined, fitness=fitness)
