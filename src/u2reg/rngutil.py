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


def _label_to_int(label) -> int:
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the sub-stream named by ``labels`` under ``seed``."""
    entropy = [int(seed) & _MASK64] + [_label_to_int(l) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *labels) -> int:
    """A derived integer seed, for APIs that take a seed rather than an rng."""
    return int(derive_rng(seed, *labels).integers(0, 1 << 63))
