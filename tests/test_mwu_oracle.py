"""Oracles for the numpy Mann-Whitney screen, with scipy as the reference.

The screen repeats the operations of scipy's ``mannwhitneyu``, so each
check asks for equality, not closeness: the p-value of every column in a
seeded fuzz, the normal cdf on grids over each branch of cephes ``ndtr``,
and the exact null tail for every pair of small group sizes.
"""
import numpy as np
import pytest
import scipy.special
import scipy.stats
from scipy.stats._mannwhitneyu import _MWU

from batteryauth.seeding import rng_from
from batteryauth.selection import (
    EXACT_MAX_GROUP,
    _binom,
    _exact_sf,
    _mwu_p,
    _ndtr,
    _rank_columns,
    select_features,
)


def _scipy_p(a, b):
    return scipy.stats.mannwhitneyu(a, b, alternative="two-sided").pvalue


def _columns(rng, n):
    """Two tied columns (values rounded at a random scale) and two untied
    ones, one of them shifted along the rows."""
    X = rng.standard_normal((n, 4))
    X[:, :2] = np.round(X[:, :2] * rng.uniform(0.3, 3.0))
    X[:, 3] += rng.uniform(0.0, 2.0) * np.arange(n) / n
    return X


def test_two_group_p_values_equal_scipy():
    """1600 column sets: one group of 1-8 or 9-30 samples, the other larger."""
    rng = rng_from(11, "mwu-fuzz")
    exact = asymptotic = 0
    for trial in range(1600):
        small = int(rng.integers(1, EXACT_MAX_GROUP + 1) if trial % 2 else rng.integers(9, 31))
        n = small + int(rng.integers(small, 50))
        X = _columns(rng, n)
        rest = np.zeros(n, dtype=bool)
        rest[rng.permutation(n)[: small if trial % 3 else n - small]] = True
        X = X[:, np.ptp(X, axis=0) > 0]
        got = _mwu_p(*_rank_columns(X), rest)
        for j in range(X.shape[1]):
            assert got[j] == _scipy_p(X[rest, j], X[~rest, j]), (trial, j)
            tied = len(np.unique(X[:, j])) < n
            if not tied and small <= EXACT_MAX_GROUP:
                exact += 1
            else:
                asymptotic += 1
    assert exact > 1500 and asymptotic > 3000, (exact, asymptotic)


def test_screen_p_values_equal_scipy_binary_and_one_vs_rest():
    """400 column sets through select_features: 2-4 classes of 5-20
    samples, Bonferroni over the one-vs-rest p-values."""
    rng = rng_from(12, "mwu-fuzz-screen")
    for trial in range(400):
        sizes = rng.integers(5, 21, size=int(rng.integers(2, 5)))
        y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        X = _columns(rng, len(y))
        X[:, 1] += y                      # one column that tells the classes apart
        got = select_features(X, y, fdr=0.05).p_values
        for j in range(X.shape[1]):
            if len(sizes) == 2:
                want = _scipy_p(X[y == 0, j], X[y == 1, j])
            else:
                per_class = [_scipy_p(X[y == c, j], X[y != c, j]) for c in range(len(sizes))]
                want = min(1.0, len(sizes) * min(per_class))
            assert got[j] == want, (trial, j)


@pytest.mark.parametrize("lo,hi", [
    (0.0, 1.0),          # |x / sqrt 2| < 1 / sqrt 2: the erf polynomial
    (1.0, 2 ** 0.5),     # erfc as 1 - erf
    (2 ** 0.5, 8 * 2 ** 0.5),            # erfc, P/Q
    (8 * 2 ** 0.5, 37.7),                # erfc, R/S
    (37.6, 60.0),        # exp underflow: ndtr reads 0 or 1
])
def test_ndtr_equals_scipy(lo, hi):
    rng = rng_from(13, "ndtr", repr(lo))
    x = np.concatenate([np.linspace(lo, hi, 20001), rng.uniform(lo, hi, 20000)])
    x = np.concatenate([x, -x])
    assert np.array_equal(_ndtr(x), scipy.special.ndtr(x))


def test_ndtr_edge_values():
    x = np.array([0.0, -0.0, 1.0, -1.0, 2 ** 0.5, -(2 ** 0.5), np.inf, -np.inf, np.nan])
    assert np.array_equal(_ndtr(x), scipy.special.ndtr(x), equal_nan=True)


def test_exact_sf_equals_scipy_for_every_small_shape():
    for n1 in range(1, EXACT_MAX_GROUP + 1):
        for n2 in range(1, 41):
            k = np.arange(n1 * n2 + 1)
            want = _MWU(n1, n2).sf(k.copy())
            assert np.array_equal(_exact_sf(n1, n2, k), want), (n1, n2)
            assert np.array_equal(_exact_sf(n2, n1, k), want), (n2, n1)


def test_binom_equals_scipy():
    for n in range(0, 400):
        for k in range(0, min(EXACT_MAX_GROUP, n // 2) + 1):
            assert _binom(n, k) == scipy.special.binom(n, k), (n, k)
