"""Deterministic RNG derivation.

Every random draw in the library flows from a single integer seed plus a
sequence of string/int labels. Labels are hashed with a stable digest so the
same (seed, labels) pair yields the same stream on any platform and in any
process, which is what makes CLI runs byte-reproducible. derive_rngs derives
the streams of many seeds under one label tuple; derive_rng is its one-seed case.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _label_to_int(label) -> int:
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _words(value: int) -> list[int]:
    """value's little-endian uint32 words as SeedSequence splits an int: [0] for 0."""
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def derive_rngs(seeds, *labels) -> list[np.random.Generator]:
    """derive_rng(seed, *labels) for each seed in turn, hashing the labels once.

    The entropy is the seed (mod 2**64) followed by one 64-bit hash per
    label. Its uint32 words are built here directly, which is cheaper than
    numpy's own conversion of a list of Python ints and gives the same stream.
    """
    tail = [word for label in labels for word in _words(_label_to_int(label))]
    return [np.random.default_rng(np.random.SeedSequence(
        np.array(_words(int(seed) & _MASK64) + tail, dtype=np.uint32))) for seed in seeds]


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the sub-stream named by ``labels`` under ``seed``."""
    return derive_rngs((seed,), *labels)[0]


def derive_seed(seed: int, *labels) -> int:
    """A derived integer seed, for APIs that take a seed rather than an rng."""
    return int(derive_rng(seed, *labels).integers(0, 1 << 63))
