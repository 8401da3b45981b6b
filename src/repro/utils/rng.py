"""Deterministic random-number management.

Reproducing the paper's experiments requires that every stochastic component
(surrogate ProteinMPNN sampling, surrogate AlphaFold noise, task duration
jitter, landscape construction) draws from an *independent, named* stream so
that adding or removing one component does not perturb the randomness seen by
the others.  We derive child seeds from a root seed plus a string key using a
stable hash, and hand out :class:`numpy.random.Generator` instances.

This mirrors the common HPC practice of per-task RNG streams: results are
bitwise reproducible regardless of execution order or concurrency.

Nothing here is cached.  A fresh campaign derives almost every stream name
(pipeline uid, cycle, task...) once, so a cache of names pays only when one
process re-runs one campaign, and it keeps every name it saw for the life of
the process: a worker's memory would grow with every run it drains.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "spawn_rng"]


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a child seed from ``root_seed`` and a sequence of keys.

    The derivation is one BLAKE2b hash over the decimal root seed and the
    ``repr`` of each key, joined by ``"\\x1f"`` in UTF-8 and truncated to 63
    bits, a valid non-negative seed for :func:`numpy.random.default_rng`.
    Hashing reprs keeps equal-but-distinct keys such as ``1`` and ``True``
    apart.  Nothing is cached (see the module docstring).

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
    name = "\x1f".join([str(int(root_seed)), *map(repr, keys)])
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & ((1 << 63) - 1)


def spawn_rng(root_seed: int, *keys: object) -> np.random.Generator:
    """Create an independent generator for the stream named by ``keys``."""
    return np.random.default_rng(derive_seed(root_seed, *keys))
