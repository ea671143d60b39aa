"""Deterministic RNG stream derivation.

Every random draw in the library flows from a user-supplied integer seed
through named child streams, so results do not depend on scheduling or
thread count. Tags may be strings (hashed stably via crc32) or integers.

``rng_from`` builds one stream through ``numpy.random.SeedSequence``.
``rngs_from`` builds the streams ``rng_from(seed, *tags, i)`` for
i = 0 .. count-1 in one pass, as a forest needs one per tree: it runs
SeedSequence's entropy hash (pool of four uint32 words, then the state
words PCG64 asks for) on a uint32 array with one row per stream, and hands
each row's state words to ``PCG64`` through numpy's public
``ISeedSequence`` interface. The hash is a port of numpy's own, so every
Generator starts in the state ``rng_from`` gives it; the oracle is
``rng_from`` itself (``tests/test_seeding.py`` compares the states over
seeds, tags and counts). The ``ISeedSequence`` subclass is defined on
first use, so importing this module does not load ``numpy.random``.
"""
from __future__ import annotations

import functools
import zlib
from typing import List

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


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


def _words(value: int) -> List[int]:
    """An entropy integer as SeedSequence reads it: little-endian uint32 words."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _multipliers(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls + 1, 1) values of SeedSequence's running hash multiplier: call j
    xors with entry j and multiplies by entry j + 1."""
    out = [init]
    for _ in range(calls):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Consecutive hash calls on uint32 rows, one call per row of h[:-1]."""
    value = value ^ h[:-1]
    value *= h[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _state_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """(n_words, rows) uint32: column r is SeedSequence(entropy[r]).generate_state.

    Calls follow SeedSequence's order; the calls of one source word on
    the other pool words are one array operation."""
    rows, length = entropy.shape
    extra = max(0, length - _POOL_SIZE)
    h = _multipliers(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:min(length, _POOL_SIZE)] = entropy[:, :_POOL_SIZE].T
    pool = _hashmix(pool, h[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[at:at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashmix(entropy[:, src], h[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    words = pool[np.arange(n_words) % _POOL_SIZE]
    return _hashmix(words, _multipliers(_INIT_B, _MULT_B, n_words))


@functools.cache
def _fixed_state_class():
    """An ISeedSequence that returns precomputed PCG64 state words."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.state) or np.dtype(dtype) != np.uint64:
                raise ValueError("FixedState holds exactly the words PCG64 asks for")
            return self.state

    return FixedState


def rngs_from(seed: int, *tags, count: int) -> List[np.random.Generator]:
    """The Generators ``rng_from(seed, *tags, i)`` for i in range(count), in one pass."""
    if count <= 0:
        return []
    if count - 1 > _MASK32:
        raise ValueError(f"count {count} exceeds one uint32 word per stream index")
    prefix = [w for value in _entropy(seed, tags) for w in _words(value)]
    entropy = np.empty((count, len(prefix) + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(count, dtype=np.uint32)
    halves = _state_words(entropy, 8).astype(np.uint64)
    # PCG64 asks for four uint64 words, each two uint32 words, low first;
    # it reads a row's memory, so rows must be contiguous
    state = np.ascontiguousarray((halves[0::2] | (halves[1::2] << np.uint64(32))).T)
    fixed = _fixed_state_class()
    return [np.random.Generator(np.random.PCG64(fixed(row))) for row in state]
