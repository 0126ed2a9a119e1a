"""Labeled seed derivation."""

import numpy as np

from u2reg.rngutil import _MASK64, _label_to_int, derive_rng, derive_rngs, derive_seed


def _reference_rng(seed, *labels):
    """The derivation written plainly: SeedSequence over Python ints."""
    entropy = [int(seed) & _MASK64] + [_label_to_int(label) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**64 + 2**33 + 7, 123456789]
LABELS = [(), ("shuffle", 3), ("dropout", 0), (7,), (0.5,), (("grid", 1),),
          ("benchmark-train", "low-noise", 50.0, 1, "u2")]


def test_derive_rng_draws_the_reference_stream():
    for seed in SEEDS:
        for labels in LABELS:
            fast, reference = derive_rng(seed, *labels), _reference_rng(seed, *labels)
            assert fast.bit_generator.state == reference.bit_generator.state, (seed, labels)
            assert np.array_equal(fast.random(5), reference.random(5))
            assert np.array_equal(fast.permutation(40), reference.permutation(40))


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(3, "a") == derive_seed(3, "a")
    assert derive_seed(3, "a") != derive_seed(3, "b")
    assert derive_seed(3, 1) != derive_seed(3, 1.0)
    assert 0 <= derive_seed(2**64 + 3, "a") < 2**63


def test_derive_rngs_gives_each_seed_its_derive_rng_stream():
    seeds = SEEDS + [-(2**40) - 5, 2**32 + 1]
    for labels in LABELS + [("x", 3, ("shuffle", 0)), ("",)]:
        rngs = derive_rngs(seeds, *labels)
        assert len(rngs) == len(seeds)
        for seed, rng in zip(seeds, rngs):
            alone = derive_rng(seed, *labels)
            assert rng.bit_generator.state == alone.bit_generator.state, (seed, labels)
            assert rng.bit_generator.state == _reference_rng(seed, *labels).bit_generator.state
            assert np.array_equal(rng.permutation(40), alone.permutation(40))
    assert derive_rngs([], "shuffle", 0) == []
