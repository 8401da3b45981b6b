"""Tests for deterministic RNG stream management."""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_seed, spawn_rng


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
