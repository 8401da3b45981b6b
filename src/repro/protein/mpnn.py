"""Surrogate ProteinMPNN: sequence design conditioned on a backbone.

The real ProteinMPNN takes a backbone, designs sequences for it and reports a
per-sequence log-likelihood.  The surrogate reproduces the three properties
the IMPRESS protocol relies on:

1. **Conditioning on the backbone** — sampling quality improves with the
   complex's latent ``backbone_quality``: a better backbone (produced by the
   previous AlphaFold cycle) sharpens the sampling distribution toward
   residues the landscape's additive term favours.  This is what makes the
   iterative MPNN -> AF -> MPNN loop converge.
2. **Informative but imperfect scores** — the reported log-likelihood is
   derived from the landscape's *additive* term plus noise, so ranking by it
   correlates with (but does not equal) the AlphaFold quality of the design;
   the adaptive fallback through lower-ranked sequences therefore matters.
3. **User-parameterisable generation** — number of sequences, sampling
   temperature, fixed positions (the future-work protease use case fixes
   catalytic residues) and which chain to design.

Generation is batched.  The softmax sampling profile (and its CDF) over all
designable positions is built once per call, from the landscape's
:meth:`~repro.protein.landscape.FitnessLandscape.additive_logits` scaled by
the call's inverse temperature.  The per-design loop makes only its four
draws, in the order of the historical per-design implementation:
``binomial`` (how many mutations),
:func:`~repro.utils.rng.sample_without_replacement` (which profile rows: the
draws ``Generator.choice(n, size=k, replace=False)`` makes, so at most 10,000
designable positions), ``random`` (one uniform per mutation) and ``normal``
(score noise).  Everything else happens once per call, on one encoded
``(n_sequences, L)`` matrix: one CDF comparison yields every mutated residue,
one fancy-index assignment writes them into copies of the current receptor's
encoding, one batched partial-score evaluation scores all designs, and the
rows become sequences.  Seeded outputs are bit-identical to the per-design
loop.

The call builds each design once.  The matrix is valid by construction (see
the comments in :meth:`SurrogateProteinMPNN.generate`), so it is scored and
decoded through the trusted cores behind
:meth:`~repro.protein.landscape.FitnessLandscape.partial_score_batch` and
:func:`~repro.protein.sequence.decode_batch`.  The log-likelihoods are
checked finite once, as a list, and each
:class:`~repro.protein.sequence.ScoredSequence` is then built without its
own check.

A model's generator serves one call's draws: each call resets the model's
one :class:`~repro.utils.rng.KeyedStreams` generator to the stream
``spawn_rng(seed, "mpnn", complex name, *stream)`` would start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ProteinError, SequenceError
from repro.protein.landscape import FitnessLandscape
from repro.protein.sequence import ScoredSequence, _decode_rows
from repro.protein.structure import ComplexStructure
from repro.utils.rng import (
    MAX_SAMPLE_POPULATION,
    KeyedStreams,
    sample_without_replacement,
)

__all__ = ["MPNNConfig", "SurrogateProteinMPNN"]


@dataclass(frozen=True)
class MPNNConfig:
    """User-facing ProteinMPNN parameters (Stage 1 of the pipeline).

    Attributes
    ----------
    n_sequences:
        Number of sequences generated per call (the paper uses 10).
    temperature:
        Sampling temperature; higher values explore more aggressively.  It
        must keep the inverse temperature ``(1 + backbone_sharpening) /
        temperature`` finite.
    mutation_rate:
        Expected fraction of designable positions redesigned per sequence.
    fixed_positions:
        Receptor positions that must keep their current identity (e.g.
        catalytic residues in the protease scenario of the paper's §V).
    score_noise:
        Standard deviation of the log-likelihood noise, at most a sixteenth
        of the float maximum.
    backbone_sharpening:
        How strongly a good backbone sharpens the sampling distribution.
    """

    n_sequences: int = 10
    temperature: float = 1.0
    mutation_rate: float = 0.12
    fixed_positions: tuple[int, ...] = field(default_factory=tuple)
    score_noise: float = 0.15
    backbone_sharpening: float = 2.0

    def __post_init__(self) -> None:
        if self.n_sequences < 1:
            raise ConfigurationError("n_sequences must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigurationError(
                f"temperature must be finite and positive, got {self.temperature!r}"
            )
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must lie in (0, 1]")
        for name in ("score_noise", "backbone_sharpening"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        # The largest inverse temperature generate uses is at backbone
        # quality 1; an infinite one makes NaN sampling probabilities.
        if not math.isfinite((1.0 + self.backbone_sharpening) / self.temperature):
            raise ConfigurationError(
                f"temperature {self.temperature!r} is too small for "
                f"backbone_sharpening {self.backbone_sharpening!r}: the inverse "
                "sampling temperature overflows"
            )
        # A normal draw is below 13.71 in magnitude (NumPy's ziggurat tail is
        # r - log1p(-u) / r with r < 3.66 and u <= 1 - 2**-53), so with this
        # bound no noise term overflows.
        if not math.isfinite(16.0 * self.score_noise):
            raise ConfigurationError(
                f"score_noise {self.score_noise!r} is too large: a noise draw "
                "could overflow"
            )


class SurrogateProteinMPNN:
    """Generates candidate receptor sequences for a complex.

    One instance per campaign, not shared across threads: every
    :meth:`generate` call draws from the one reused generator of
    :class:`~repro.utils.rng.KeyedStreams`.
    """

    def __init__(self, config: Optional[MPNNConfig] = None, seed: int = 0) -> None:
        self._config = config or MPNNConfig()
        self._streams = KeyedStreams(seed, "mpnn")

    @property
    def config(self) -> MPNNConfig:
        return self._config

    def generate(
        self,
        complex_structure: ComplexStructure,
        landscape: FitnessLandscape,
        *,
        n_sequences: Optional[int] = None,
        stream: Sequence[object] = (),
    ) -> List[ScoredSequence]:
        """Design ``n_sequences`` receptor sequences for the complex.

        Parameters
        ----------
        complex_structure:
            The current complex; its receptor sequence is the design starting
            point and its ``backbone_quality`` conditions the sampling.
        landscape:
            The target's fitness landscape (the additive part of which plays
            the role of ProteinMPNN's learned sequence preferences).
        n_sequences:
            Override of the configured sequence count.
        stream:
            Extra keys mixed into the RNG stream (pipeline uid, cycle index)
            so concurrent pipelines draw independent randomness.

        Returns
        -------
        list of ScoredSequence
            Candidate sequences with surrogate log-likelihood scores,
            unsorted (ranking is a separate pipeline stage).
        """
        count = n_sequences if n_sequences is not None else self._config.n_sequences
        if count < 1:
            raise ConfigurationError("must request at least one sequence")

        current = complex_structure.receptor.sequence
        if len(current) != landscape.receptor_length:
            raise ProteinError(
                "complex receptor length does not match the landscape"
            )

        fixed = self._config.fixed_positions
        if fixed:
            designable_rows = np.array(
                [
                    row
                    for row, position in enumerate(landscape.designable_positions)
                    if position not in fixed
                ],
                dtype=np.int64,
            )
        else:
            designable_rows = np.arange(
                len(landscape.designable_positions), dtype=np.int64
            )
        if not designable_rows.size:
            raise ProteinError(
                "no designable positions remain after applying fixed_positions"
            )
        if designable_rows.size > MAX_SAMPLE_POPULATION:
            raise ProteinError(
                f"{designable_rows.size} designable positions; the sampler "
                f"reproduces Generator.choice only up to {MAX_SAMPLE_POPULATION}"
            )

        rng = self._streams.stream(complex_structure.name, *stream)

        # A good backbone sharpens sampling toward the additive optimum; a
        # poor backbone samples closer to uniform.  Effective inverse
        # temperature grows linearly with backbone quality.
        beta = (
            1.0 + self._config.backbone_sharpening * complex_structure.backbone_quality
        ) / self._config.temperature

        # Precompute the sampling profile for every designable position once
        # per call: softmax of the additive term at inverse temperature beta,
        # stored as a CDF matrix so per-position categorical draws reduce to
        # one vectorized comparison.  Row order follows the landscape's
        # designable positions.  A CDF row ends at x / x for the row's sum x:
        # exactly 1.0, since each row holds a logit of 0.0, so x >= 1.0 (beta
        # is finite: MPNNConfig refuses a temperature at which it overflows).
        probabilities = np.exp(beta * landscape.additive_logits())
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        cdf = probabilities.cumsum(axis=1)
        cdf /= cdf[:, -1:]

        # Only the RNG draws are per design, in the historical order.  The
        # sampler picks designable rows instead of receptor positions: its
        # draws depend only on the population and sample sizes.
        n_designable = len(designable_rows)
        mutation_rate = self._config.mutation_rate
        score_noise = self._config.score_noise
        mutation_counts: List[int] = []
        picks: List[int] = []
        draws: List[np.ndarray] = []
        noises: List[float] = []
        for _ in range(count):
            n_mutations = min(
                max(1, int(rng.binomial(n_designable, mutation_rate))), n_designable
            )
            picks += sample_without_replacement(rng, n_designable, n_mutations)
            draws.append(rng.random(n_mutations))
            noises.append(float(rng.normal(scale=score_noise)))
            mutation_counts.append(n_mutations)

        # ``random()`` draws lie in [0, 1), so a CDF row's last entry (1.0) is
        # never <= a draw and at most 19 of a row's 20 entries are:
        # every residue index is in [0, 19].  The rest of the matrix is the
        # receptor's own valid encoding, so the matrix is scored and decoded
        # without a re-check.
        rows = designable_rows[picks]
        residue_indices = (cdf[rows] <= np.concatenate(draws)[:, None]).sum(axis=1)
        encoded = np.repeat(current.encode()[None, :], count, axis=0)
        encoded[
            np.repeat(np.arange(count), mutation_counts),
            np.asarray(landscape.designable_positions)[rows],
        ] = residue_indices

        # Every partial score is finite, and MPNNConfig bounds score_noise so
        # that no noise draw overflows; the check stays as the last guard on
        # what a design reports.
        log_likelihoods = (landscape._partial_scores(encoded) + noises).tolist()
        if not all(map(math.isfinite, log_likelihoods)):
            raise SequenceError("log_likelihood must be finite")
        prefix = f"{complex_structure.name}_design_"
        sequences = _decode_rows(
            encoded,
            current.chain_id,
            [f"{prefix}{index:03d}" for index in range(count)],
        )
        return [
            ScoredSequence._trusted(sequence, log_likelihood)
            for sequence, log_likelihood in zip(sequences, log_likelihoods)
        ]
