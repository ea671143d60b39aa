"""Stream derivation: the one-pass ``rngs_from`` against ``rng_from``.

``rng_from`` goes through numpy's own SeedSequence, so it is the oracle:
every Generator ``rngs_from`` builds must start in the state ``rng_from``
gives the same (seed, tags, index) and draw the same numbers.
"""
import numpy as np
import pytest

from batteryauth.seeding import child_seed, rng_from, rngs_from

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 12345,
         child_seed(7, "candidate", 3), child_seed(2**40, "kfold")]
TAGS = [(), ("tree",), (9,), ("tree", 5), ("kfold", 2**33), ("a", 2**70, "b")]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tags", TAGS, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 50, 300])
def test_states_equal_rng_from(seed, tags, count):
    streams = rngs_from(seed, *tags, count=count)
    assert len(streams) == count
    for i, rng in enumerate(streams):
        assert rng.bit_generator.state == rng_from(seed, *tags, i).bit_generator.state


def test_draws_equal_rng_from():
    for i, rng in enumerate(rngs_from(11, "tree", count=20)):
        ref = rng_from(11, "tree", i)
        assert rng.integers(0, 1000, 40).tolist() == ref.integers(0, 1000, 40).tolist()
        assert rng.choice(137, size=12, replace=False).tolist() == \
            ref.choice(137, size=12, replace=False).tolist()


def test_numpy_integer_tags_read_as_ints():
    a = rngs_from(np.uint64(5), np.int32(3), count=2)
    assert a[1].bit_generator.state == rng_from(5, 3, 1).bit_generator.state


def test_negative_entropy_raises_like_seed_sequence():
    with pytest.raises(ValueError):
        rng_from(-1, "tree", 0)
    with pytest.raises(ValueError):
        rngs_from(-1, "tree", count=3)
    with pytest.raises(ValueError):
        rngs_from(1, -2, count=3)
