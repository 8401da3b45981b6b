"""Deterministic random-number management.

Reproducing the paper's experiments requires that every stochastic component
(surrogate ProteinMPNN sampling, surrogate AlphaFold noise, task duration
jitter, landscape construction) draws from an *independent, named* stream so
that adding or removing one component does not perturb the randomness seen by
the others.  We derive child seeds from a root seed plus a string key using a
stable hash, and hand out :class:`numpy.random.Generator` instances.

This mirrors the common HPC practice of per-task RNG streams: results are
bitwise reproducible regardless of execution order or concurrency.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = ["derive_seed", "spawn_rng"]


@lru_cache(maxsize=65536)
def _hash_key_reprs(root_seed: int, key_reprs: Tuple[str, ...]) -> int:
    """Memoised BLAKE2b hash of a stream name.

    Campaign-scale runs spawn the same streams (same pipeline uid, cycle,
    sequence...) over and over; caching on the already-``repr``-ed keys makes
    repeat derivations a dict lookup instead of a fresh hash.  Keying on the
    reprs (not the objects) keeps distinct-but-equal keys such as ``1`` and
    ``True`` from colliding.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(root_seed).encode("utf-8"))
    for key_repr in key_reprs:
        h.update(b"\x1f")
        h.update(key_repr.encode("utf-8"))
    return int.from_bytes(h.digest(), "little") & ((1 << 63) - 1)


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a child seed from ``root_seed`` and a sequence of keys.

    The derivation uses BLAKE2b over the decimal representation of the root
    seed and the ``repr`` of each key, truncated to 63 bits so the result is a
    valid non-negative seed for :func:`numpy.random.default_rng`.  Repeated
    derivations of the same stream name are served from an LRU cache.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    *keys:
        Arbitrary hashable-by-repr identifiers (strings, ints, tuples) naming
        the stream, e.g. ``("mpnn", target_name, cycle)``.

    Returns
    -------
    int
        A deterministic 63-bit seed.
    """
    return _hash_key_reprs(int(root_seed), tuple(repr(key) for key in keys))


def spawn_rng(root_seed: int, *keys: object) -> np.random.Generator:
    """Create an independent generator for the stream named by ``keys``."""
    return np.random.default_rng(derive_seed(root_seed, *keys))
