"""Deterministic random-number management.

Reproducing the paper's experiments requires that every stochastic component
(surrogate ProteinMPNN sampling, surrogate AlphaFold noise, task duration
jitter, landscape construction) draws from an *independent, named* stream so
that adding or removing one component does not perturb the randomness seen by
the others.  We derive child seeds from a root seed plus a string key using a
stable hash, and hand out :class:`numpy.random.Generator` instances.

This mirrors the common HPC practice of per-task RNG streams: results are
bitwise reproducible regardless of execution order or concurrency.

Two ways to open a stream start it at the same state:

* :func:`spawn_rng` builds a new generator.  Callers that keep their stream
  (pipeline selection, landscapes, target assembly, the genetic optimizer)
  use it, and it is the reference the other way is tested against.
* :class:`KeyedStreams` resets one reused generator to the stream's start.
  The three models that open a stream per call (task durations, MPNN,
  folding) each hold one, so a call pays for a ``SeedSequence`` and a state
  assignment instead of a generator.  The generator serves one call's draws:
  the next ``stream()`` call overwrites it.

:func:`sample_without_replacement` makes exactly the draws
``Generator.choice(n, size=k, replace=False)`` makes for ``n <= 10_000``,
without its per-call set-up.

Both rest on how NumPy seeds ``PCG64`` from an integer and on its bounded
draws; ``tests/utils/test_rng.py`` checks both against NumPy and pins a
golden state, so a NumPy release that changes either fails there first.

Nothing here is cached.  A fresh campaign derives almost every stream name
(pipeline uid, cycle, task...) once, so a cache of names pays only when one
process re-runs one campaign, and it keeps every name it saw for the life of
the process: a worker's memory would grow with every run it drains.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

__all__ = [
    "MAX_SAMPLE_POPULATION",
    "KeyedStreams",
    "derive_seed",
    "pcg64_seed_state",
    "sample_without_replacement",
    "spawn_rng",
]

#: Largest population :func:`sample_without_replacement` reproduces: above
#: it, ``Generator.choice`` may switch from Floyd's algorithm to a tail
#: shuffle.
MAX_SAMPLE_POPULATION = 10_000

_MASK32 = (1 << 32) - 1
_MASK63 = (1 << 63) - 1
_MASK128 = (1 << 128) - 1
#: ``SeedSequence.generate_state``'s hash constants.
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


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
    return int.from_bytes(digest, "little") & _MASK63


def spawn_rng(root_seed: int, *keys: object) -> np.random.Generator:
    """Create an independent generator for the stream named by ``keys``."""
    return np.random.default_rng(derive_seed(root_seed, *keys))


def pcg64_seed_state(seed: int) -> Tuple[int, int]:
    """The ``(state, inc)`` that ``np.random.PCG64(seed)`` starts from.

    NumPy hashes the seed into ``SeedSequence(seed).pool``, hashes the pool
    into eight 32-bit words (``generate_state(4, np.uint64)``), reads them as
    four little-endian 64-bit words ``(initstate high, low, initseq high,
    low)`` and seeds the LCG ``state -> state * multiplier + inc`` in two
    steps from 0: ``inc = 2 * initseq + 1``, then ``state = step(step(0) +
    initstate)``.  Only the first hash runs in NumPy here.
    """
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = []
    hash_const = _INIT_B
    for value in pool + pool:
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    initstate = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
    inc = (words[5] << 97 | words[4] << 65 | words[7] << 33 | words[6] << 1 | 1) & _MASK128
    return ((initstate + inc) * _PCG64_MULTIPLIER + inc) & _MASK128, inc


class KeyedStreams:
    """One reused generator, reset to the start of each named stream.

    ``KeyedStreams(root_seed, namespace).stream(*keys)`` returns a generator
    in exactly the state ``spawn_rng(root_seed, namespace, *keys)`` starts
    from, so it makes the same draws.  Every call returns the same
    generator, and the next call resets it: a stream serves one caller's
    draws until then, so an instance belongs to one thread.  The seed comes
    from a copy of a BLAKE2b state that has already hashed the root seed and
    the namespace.
    """

    def __init__(self, root_seed: int, namespace: object) -> None:
        prefix = "\x1f".join([str(int(root_seed)), repr(namespace)])
        self._prefix = hashlib.blake2b(prefix.encode("utf-8"), digest_size=8)
        self._generator = np.random.Generator(np.random.PCG64(0))

    def stream(self, *keys: object) -> np.random.Generator:
        """Reset the generator to the stream ``keys`` names and return it."""
        hasher = self._prefix.copy()
        hasher.update("".join(["\x1f" + repr(key) for key in keys]).encode("utf-8"))
        state, inc = pcg64_seed_state(int.from_bytes(hasher.digest(), "little") & _MASK63)
        # Resetting the buffered 32-bit half is all a fresh generator adds:
        # a cached binomial set-up is recomputed whenever (n, p) changes and
        # otherwise holds what the set-up would compute.
        self._generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator


def sample_without_replacement(
    generator: np.random.Generator, n: int, k: int
) -> List[int]:
    """Draw ``k`` distinct values of ``range(n)`` as ``choice`` would.

    The result and the generator's state afterwards, its buffered 32-bit half
    included, equal ``generator.choice(n, size=k, replace=False)``'s for
    ``1 <= k <= n <= MAX_SAMPLE_POPULATION``.  That is Floyd's algorithm,
    drawing in ``[0, j]`` for ``j = n - k, ..., n - 1``, then one
    Fisher-Yates pass over the sample, drawing in ``[0, i]`` for
    ``i = k - 1, ..., 1``.  ``generator.integers(bound + 1)`` makes each draw
    the way ``choice`` does: Lemire's method on PCG64's 32-bit halves (a
    word's low half first, its high half kept for the next draw), and no
    bits at all for ``[0, 0]``.

    Raises
    ------
    ValueError
        If ``k`` or ``n`` lies outside that range.
    """
    if not 1 <= k <= n <= MAX_SAMPLE_POPULATION:
        raise ValueError(
            f"need 1 <= k <= n <= {MAX_SAMPLE_POPULATION}, got n={n!r}, k={k!r}"
        )
    integers = generator.integers
    picked: List[int] = []
    seen = set()
    for j in range(n - k, n):
        value = int(integers(j + 1))
        if value in seen:
            # Every earlier pick is below j, so j is new.
            value = j
        seen.add(value)
        picked.append(value)
    for i in range(k - 1, 0, -1):
        j = int(integers(i + 1))
        picked[i], picked[j] = picked[j], picked[i]
    return picked
