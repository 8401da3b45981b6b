"""Batched ≡ per-design ProteinMPNN generation.

:meth:`~repro.protein.mpnn.SurrogateProteinMPNN.generate` keeps only its four
RNG calls per design and does every lookup, substitution and sequence
construction once per call, on one encoded matrix.  These tests pin it bit
for bit to the per-design loop it replaced (kept here as the reference):
residues, names, chain ids, encodings and log-likelihood bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.protein.alphabet import AMINO_ACIDS
from repro.protein.datasets import make_pdz_target
from repro.protein.mpnn import MPNNConfig, SurrogateProteinMPNN
from repro.protein.sequence import ProteinSequence, ScoredSequence, check_encoded, decode_batch
from repro.utils.rng import spawn_rng


_FLOAT_MAX = float(np.finfo(float).max)
#: The smallest temperature MPNNConfig accepts at the default sharpening,
#: 2.0: (1 + 2.0) / t is finite here and overflows one step below.
_SMALLEST_TEMPERATURE = float(np.nextafter(3.0 / _FLOAT_MAX, 1.0))


def _reference_generate(config, seed, complex_structure, landscape, *,
                        n_sequences=None, stream=()):
    """One design at a time: the loop the batched generate replaced."""
    count = n_sequences if n_sequences is not None else config.n_sequences
    current = complex_structure.receptor.sequence
    designable = [
        position
        for position in landscape.designable_positions
        if position not in config.fixed_positions
    ]
    rng = spawn_rng(seed, "mpnn", complex_structure.name, *stream)
    beta = (
        1.0 + config.backbone_sharpening * complex_structure.backbone_quality
    ) / config.temperature
    profiles = np.stack(
        [landscape.additive_profile(position) for position in landscape.designable_positions]
    )
    logits = beta * (profiles - profiles.max(axis=1, keepdims=True))
    probabilities = np.exp(logits)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    cdf = probabilities.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    local_row = {
        position: row for row, position in enumerate(landscape.designable_positions)
    }

    designable_array = np.asarray(designable, dtype=np.int64)
    sequences, noises = [], []
    for _ in range(count):
        n_mutations = max(1, int(rng.binomial(len(designable), config.mutation_rate)))
        positions = rng.choice(
            designable_array, size=min(n_mutations, len(designable)), replace=False
        )
        rows = np.array([local_row[int(p)] for p in positions], dtype=np.int64)
        draws = rng.random(len(positions))
        residue_indices = (cdf[rows] <= draws[:, None]).sum(axis=1)
        residues = list(current.residues)
        for position, residue_index in zip(positions, residue_indices):
            residues[int(position)] = AMINO_ACIDS[int(residue_index)]
        sequences.append(ProteinSequence("".join(residues), chain_id=current.chain_id))
        noises.append(float(rng.normal(scale=config.score_noise)))

    partials = landscape.partial_score_batch(sequences)
    return [
        ScoredSequence(
            sequence=ProteinSequence(
                sequence.residues,
                chain_id=sequence.chain_id,
                name=f"{complex_structure.name}_design_{index:03d}",
            ),
            log_likelihood=float(partials[index] + noises[index]),
        )
        for index, sequence in enumerate(sequences)
    ]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_identical(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.sequence.residues == w.sequence.residues
        assert g.sequence.name == w.sequence.name
        assert g.sequence.chain_id == w.sequence.chain_id
        encoded = g.sequence.encode()
        assert encoded.dtype == np.int64
        assert not encoded.flags.writeable
        np.testing.assert_array_equal(encoded, w.sequence.encode())
        assert type(g.log_likelihood) is float
        assert _bits(g.log_likelihood) == _bits(w.log_likelihood)


def _check(target, config, seed, **kwargs) -> None:
    got = SurrogateProteinMPNN(config, seed=seed).generate(
        target.complex, target.landscape, **kwargs
    )
    want = _reference_generate(config, seed, target.complex, target.landscape, **kwargs)
    _assert_identical(got, want)


@pytest.fixture(scope="module")
def target():
    return make_pdz_target("HTRA1", seed=23)


class TestBatchedGenerateMatchesPerDesignLoop:
    @pytest.mark.parametrize("n_sequences", [1, 10, 40])
    @pytest.mark.parametrize("temperature", [0.3, 1.0, 2.5])
    def test_counts_and_temperatures(self, target, n_sequences, temperature):
        _check(
            target, MPNNConfig(temperature=temperature), seed=5,
            n_sequences=n_sequences, stream=("pipe", 0),
        )

    @pytest.mark.parametrize("stream", [(), ("p.0001", 0), ("p.0002", 3), (7,)])
    def test_streams(self, target, stream):
        _check(target, MPNNConfig(), seed=11, stream=stream)

    def test_fixed_positions(self, target):
        fixed = target.landscape.designable_positions[::3]
        _check(target, MPNNConfig(fixed_positions=tuple(fixed)), seed=3)

    def test_single_designable_position(self, target):
        fixed = tuple(target.landscape.designable_positions[1:])
        _check(target, MPNNConfig(fixed_positions=fixed), seed=3, n_sequences=12)

    def test_every_position_mutated(self, target):
        _check(target, MPNNConfig(mutation_rate=1.0), seed=4, n_sequences=10)

    @pytest.mark.parametrize("quality", [0.0, 0.5, 1.0])
    def test_backbone_quality(self, target, quality):
        complex_structure = replace(target.complex, backbone_quality=quality)
        config = MPNNConfig()
        got = SurrogateProteinMPNN(config, seed=9).generate(
            complex_structure, target.landscape, stream=("q",)
        )
        want = _reference_generate(
            config, 9, complex_structure, target.landscape, stream=("q",)
        )
        _assert_identical(got, want)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_sequences=st.integers(min_value=1, max_value=24),
        temperature=st.floats(min_value=0.05, max_value=5.0),
        mutation_rate=st.floats(min_value=0.01, max_value=1.0),
        n_fixed=st.integers(min_value=0, max_value=6),
        cycle=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_configurations(
        self, target, seed, n_sequences, temperature, mutation_rate, n_fixed, cycle
    ):
        config = MPNNConfig(
            temperature=temperature,
            mutation_rate=mutation_rate,
            fixed_positions=tuple(target.landscape.designable_positions[:n_fixed]),
        )
        _check(target, config, seed=seed, n_sequences=n_sequences, stream=("h", cycle))


class TestTrustedBuild:
    """The invariants that let generate skip re-checking what it built."""

    @pytest.mark.parametrize("beta", [1e-300, 0.2, 1.0, 3.0, 40.0, 1e300])
    def test_cdf_rows_end_at_exactly_one(self, target, beta):
        probabilities = np.exp(beta * target.landscape.additive_logits())
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        cdf = probabilities.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        assert np.all(cdf[:, -1] == 1.0)
        # The largest draw random() returns still picks an index below 20.
        top = np.nextafter(1.0, 0.0)
        assert (cdf <= top).sum(axis=1).max() <= 19

    @pytest.mark.parametrize(
        "config",
        [
            MPNNConfig(temperature=1e-300),
            MPNNConfig(temperature=_SMALLEST_TEMPERATURE),
            MPNNConfig(temperature=1e300, backbone_sharpening=0.0),
            MPNNConfig(mutation_rate=1.0, score_noise=1e300),
            # The largest noise scale accepted.
            MPNNConfig(mutation_rate=1.0, score_noise=_FLOAT_MAX / 16),
        ],
    )
    @pytest.mark.parametrize("quality", [0.0, 1.0])
    def test_extreme_configurations_build_valid_designs(self, target, config, quality):
        complex_structure = replace(target.complex, backbone_quality=quality)
        with np.errstate(over="ignore"):  # beta * logit overflows to -inf
            designs = SurrogateProteinMPNN(config, seed=8).generate(
                complex_structure, target.landscape, n_sequences=16, stream=("x",)
            )
            want = _reference_generate(
                config, 8, complex_structure, target.landscape, n_sequences=16,
                stream=("x",),
            )
        _assert_identical(designs, want)
        encoded = np.stack([design.sequence.encode() for design in designs])
        check_encoded(encoded)
        rebuilt = decode_batch(
            encoded, designs[0].sequence.chain_id, [d.sequence.name for d in designs]
        )
        assert [s.residues for s in rebuilt] == [d.sequence.residues for d in designs]
        assert all(math.isfinite(design.log_likelihood) for design in designs)

    @pytest.mark.parametrize(
        "temperature, sharpening",
        [
            (5e-324, 2.0),
            (float(np.nextafter(_SMALLEST_TEMPERATURE, 0.0)), 2.0),
            (1e-309, 0.0),
        ],
    )
    def test_an_overflowing_inverse_temperature_is_refused(self, temperature, sharpening):
        # beta reaches (1 + sharpening) / temperature at backbone quality 1;
        # at inf the sampling probabilities were NaN and every mutated
        # residue came out as index 0.
        assert not math.isfinite((1.0 + sharpening) / temperature)
        with pytest.raises(ConfigurationError, match="temperature"):
            MPNNConfig(temperature=temperature, backbone_sharpening=sharpening)

    @pytest.mark.parametrize(
        "score_noise", [1e308, float(np.nextafter(_FLOAT_MAX / 16, np.inf))]
    )
    def test_a_noise_scale_whose_draw_could_overflow_is_refused(self, score_noise):
        # score_noise is the caller's: at 1e308 a normal draw overflowed on
        # some streams, and generate refused the design there only.
        with pytest.raises(ConfigurationError, match="score_noise"):
            MPNNConfig(score_noise=score_noise)


def test_designs_do_not_share_encoding_memory(target):
    designs = SurrogateProteinMPNN(seed=1).generate(target.complex, target.landscape)
    encodings = [design.sequence.encode() for design in designs]
    for index, encoding in enumerate(encodings):
        assert encoding.base is None
        for other in encodings[index + 1:]:
            assert not np.shares_memory(encoding, other)
