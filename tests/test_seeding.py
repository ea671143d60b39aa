"""Stream derivation: ``rng_from`` against numpy's own SeedSequence.

A stream is numpy's SeedSequence over the seed and the tags, read as
integers (a string through its crc32), so the oracle builds that
SeedSequence itself: every Generator ``rng_from`` gives for (seed, tags,
index) must start in its state.
"""
import zlib

import numpy as np
import pytest

from batteryauth.errors import BadInterval
from batteryauth.seeding import child_seed, rng_from

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 12345,
         child_seed(7, "candidate", 3), child_seed(2**40, "kfold")]
TAGS = [(), ("tree",), (9,), ("tree", 5), ("kfold", 2**33), ("a", 2**70, "b")]


def _oracle(seed, *tags):
    words = [seed] + [zlib.crc32(t.encode("utf-8")) if isinstance(t, str) else t for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tags", TAGS, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 50, 300])
def test_states_equal_rng_from(seed, tags, count):
    # stream indices 0 through count
    for i in range(count + 1):
        assert rng_from(seed, *tags, i).bit_generator.state == _oracle(seed, *tags, i).bit_generator.state


def test_numpy_integer_tags_read_as_ints():
    a = rng_from(np.uint64(5), np.int32(3), np.int64(1))
    assert a.bit_generator.state == rng_from(5, 3, 1).bit_generator.state


def test_negative_entropy_raises_like_seed_sequence():
    with pytest.raises(ValueError):
        rng_from(-1, "tree", 0)


@pytest.mark.parametrize("seed, tags", [(-1, ("tree", 0)), (3, ("tree", -2)), (-5, ())])
def test_negative_seed_or_tag_is_a_library_error(seed, tags):
    with pytest.raises(BadInterval, match="seed must be >= 0"):
        rng_from(seed, *tags)
    with pytest.raises(BadInterval, match="seed must be >= 0"):
        child_seed(seed, *tags)
