"""Deterministic RNG stream derivation.

Every random draw in the library flows from a user-supplied integer seed
through named child streams, so results do not depend on scheduling or
thread count. Tags may be strings (hashed stably via crc32) or integers.
``rng_from`` builds one stream through ``numpy.random.SeedSequence``; a
forest draws all of its trees from one such stream.
"""
from __future__ import annotations

import zlib

import numpy as np


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"seed tag must be int or str, got {type(tag).__name__}")


def _entropy(seed: int, tags) -> tuple:
    return (int(seed),) + tuple(_tag_to_int(t) for t in tags)


def child_seed(seed: int, *tags) -> int:
    """Derive a stable 64-bit sub-seed from (seed, tags)."""
    return int(np.random.SeedSequence(_entropy(seed, tags)).generate_state(1, np.uint64)[0])


def rng_from(seed: int, *tags) -> np.random.Generator:
    """Generator for the (seed, tags) stream."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, tags)))
