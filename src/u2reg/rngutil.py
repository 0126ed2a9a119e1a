"""Deterministic RNG derivation.

Every random draw in the library flows from a single integer seed plus a
sequence of string/int labels. Labels are hashed with a stable digest so the
same (seed, labels) pair yields the same stream on any platform and in any
process, which is what makes CLI runs byte-reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _label_to_int(label) -> int:
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the sub-stream named by ``labels`` under ``seed``.

    The entropy is the seed (mod 2**64) followed by one 64-bit hash per
    label. SeedSequence splits each of those ints into its little-endian
    uint32 words, dropping trailing zero words ([0] for 0); the words are
    built here directly, which is cheaper than numpy's own conversion of a
    list of Python ints and gives the same stream.
    """
    words = []
    for value in (int(seed) & _MASK64, *map(_label_to_int, labels)):
        words.append(value & _MASK32)
        if value >> 32:
            words.append(value >> 32)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def derive_seed(seed: int, *labels) -> int:
    """A derived integer seed, for APIs that take a seed rather than an rng."""
    return int(derive_rng(seed, *labels).integers(0, 1 << 63))
