"""Tests for deterministic RNG stream management.

``spawn_rng`` and NumPy's own ``Generator.choice`` are the references:
:class:`KeyedStreams` must start every stream where ``spawn_rng`` does, and
:func:`sample_without_replacement` must draw what ``choice`` draws and leave
the generator where ``choice`` leaves it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    MAX_SAMPLE_POPULATION,
    KeyedStreams,
    derive_seed,
    pcg64_seed_state,
    sample_without_replacement,
    spawn_rng,
)


def _incremental_derive_seed(root_seed, *keys):
    """The historical derivation, one ``update`` per field: the reference."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode("utf-8"))
    for key in keys:
        h.update(b"\x1f")
        h.update(repr(key).encode("utf-8"))
    return int.from_bytes(h.digest(), "little") & ((1 << 63) - 1)


#: Stream-name keys: scalars, text with the separator and non-ASCII
#: characters, and nested tuples of them.
_KEYS = st.recursive(
    st.integers()
    | st.booleans()
    | st.floats()
    | st.text(st.sampled_from("\x1f,'a\u00e9\u6f22\U0001f600") | st.characters()),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_different_keys_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_equal_but_distinct_keys_do_not_collide(self):
        # Keys are hashed by repr, so 1, True, 1.0 and "1" name four streams.
        seeds = {derive_seed(0, key) for key in (1, True, 1.0, "1")}
        assert len(seeds) == 4
        assert derive_seed(0, (1, 2)) != derive_seed(0, 1, 2)

    def test_range_is_valid_numpy_seed(self):
        seed = derive_seed(123456789, "stream", 7)
        assert 0 <= seed < 2 ** 63
        np.random.default_rng(seed)  # must not raise

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_always_in_range(self, root, key):
        seed = derive_seed(root, key)
        assert 0 <= seed < 2 ** 63

    def test_golden_value(self):
        # Seeds must never change, whatever code derives them.
        assert derive_seed(7, "a", 1) == 8384184359439742816

    @given(st.integers(min_value=-(2**70), max_value=2**70), st.lists(_KEYS, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_incremental_derivation(self, root, keys):
        assert derive_seed(root, *keys) == _incremental_derive_seed(root, *keys)


class TestSpawnRng:
    def test_same_stream_same_sequence(self):
        a = spawn_rng(7, "x").random(5)
        b = spawn_rng(7, "x").random(5)
        assert np.allclose(a, b)

    def test_different_streams_diverge(self):
        a = spawn_rng(7, "x").random(5)
        b = spawn_rng(7, "y").random(5)
        assert not np.allclose(a, b)

    def test_golden_state(self):
        # The PCG64 state NumPy seeds from derive_seed(7, "a", 1): a NumPy
        # release that seeds differently fails here first.
        assert spawn_rng(7, "a", 1).bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {
                "state": 163428351603224516916995320033058985577,
                "inc": 59545289921206237275221041034874413743,
            },
            "has_uint32": 0,
            "uinteger": 0,
        }


def _draws(rng):
    """Every kind of draw the models make, plus a buffered 32-bit one."""
    return [
        int(rng.binomial(40, 0.12)),  # inversion
        int(rng.binomial(400, 0.3)),  # BTPE
        rng.choice(50, size=7, replace=False).tolist(),
        rng.random(3).tolist(),
        rng.normal(scale=0.2, size=2).tolist(),
        rng.integers(0, 1000, size=3).tolist(),
        int(rng.binomial(40, 0.12)),
    ]


class TestPcg64SeedState:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_equals_numpy_seeding(self, seed):
        state = np.random.PCG64(seed).state["state"]
        assert pcg64_seed_state(seed) == (state["state"], state["inc"])


class TestKeyedStreams:
    @given(
        root=st.integers(min_value=-(2**70), max_value=2**70),
        namespace=_KEYS,
        keys=st.lists(_KEYS, max_size=4),
        left_mid_stream=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_starts_where_spawn_rng_starts(self, root, namespace, keys, left_mid_stream):
        streams = KeyedStreams(root, namespace)
        if left_mid_stream:
            # A warm binomial set-up and a buffered 32-bit half.
            earlier = streams.stream("earlier")
            earlier.binomial(40, 0.12)
            earlier.integers(0, 1000)
            assert earlier.bit_generator.state["has_uint32"] == 1
        rng = streams.stream(*keys)
        reference = spawn_rng(root, namespace, *keys)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert _draws(rng) == _draws(reference)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_every_stream_is_the_same_generator(self):
        streams = KeyedStreams(3, "duration")
        assert streams.stream("a") is streams.stream("b")


@st.composite
def _population_and_sizes(draw):
    n = draw(
        st.integers(min_value=1, max_value=40)
        | st.integers(min_value=1, max_value=MAX_SAMPLE_POPULATION)
    )
    sizes = st.integers(min_value=1, max_value=min(n, 40)) | st.integers(
        min_value=1, max_value=n
    )
    return n, draw(st.lists(sizes, min_size=1, max_size=4))


class TestSampleWithoutReplacement:
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1), case=_population_and_sizes())
    @settings(max_examples=300, deadline=None)
    def test_equals_choice_in_the_mpnn_loop(self, seed, case):
        # The MPNN loop's draws per design: binomial, the sample, random, normal.
        n, sizes = case
        reference = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for k in sizes:
            assert rng.binomial(n, 0.12) == reference.binomial(n, 0.12)
            picked = sample_without_replacement(rng, n, k)
            assert picked == reference.choice(n, size=k, replace=False).tolist()
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.random(k).tolist() == reference.random(k).tolist()
            assert rng.normal(scale=0.15) == reference.normal(scale=0.15)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [29, 50])
    def test_a_rejected_draw_is_drawn_again(self, seed):
        # Drawing 10,000 of 10,000 takes 19,998 bounded draws.  At these seeds
        # an odd number of them is rejected, so choice ends with a buffered
        # half; with no rejection it would end with none.
        reference = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        want = reference.choice(MAX_SAMPLE_POPULATION, size=MAX_SAMPLE_POPULATION, replace=False)
        assert reference.bit_generator.state["has_uint32"] == 1
        picked = sample_without_replacement(rng, MAX_SAMPLE_POPULATION, MAX_SAMPLE_POPULATION)
        assert picked == want.tolist()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "n, k", [(0, 0), (5, 0), (5, 6), (MAX_SAMPLE_POPULATION + 1, 1)]
    )
    def test_refuses_what_it_does_not_reproduce(self, n, k):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="need 1 <= k <= n <= 10000"):
            sample_without_replacement(rng, n, k)
        assert rng.bit_generator.state == before
