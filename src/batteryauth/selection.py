"""Hypothesis-test feature selection.

Each feature gets a two-sided Mann-Whitney U p-value against the binary
target: exact when a group has at most 8 samples and the feature has no
ties, asymptotic (tie-corrected) otherwise, as scipy's default chooses.
Multiclass targets run one-vs-rest per class; the feature's p-value is
the smallest class p-value times the class count (Bonferroni), capped at
1. The Benjamini-Yekutieli step-up procedure then controls the
false discovery rate over all features. Zero-variance features are always
rejected, and if nothing survives, the single smallest-p feature is kept
so downstream models always have input.

The test is numpy only and repeats the operations of scipy 1.17's
``mannwhitneyu``, so every p-value equals scipy's bit for bit. Average
ranks and tie counts are computed once per call, since they do not
depend on the class split; a group's rank sum is exact in any order,
because ranks are half-integers. The asymptotic tail is cephes ``ndtr``
(the erf/erfc rational approximations scipy.special uses). The exact
null distribution comes from Löffler's recurrence (Löffler 1983; Mann &
Whitney 1947) in uint64, one table per pair of group sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import BadInterval, SingleClass, TooFewSamples

MIN_SAMPLES_PER_CLASS = 5
EXACT_MAX_GROUP = 8

# cephes ndtr.c: erfc on [1, 8) is P/Q, on [8, inf) R/S; erf on [0, 1] is T/U.
# Highest power first; Q, S and U have an implied leading 1.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 7.07106781186547524401E-1


@dataclass(frozen=True, eq=False)
class SelectionMask:
    keep: np.ndarray          # bool per catalog entry
    p_values: np.ndarray
    fdr_level: float


def benjamini_yekutieli(p_values: np.ndarray, fdr: float) -> np.ndarray:
    """Step-up BY keep mask at level fdr (valid under arbitrary dependence).

    Sorted p(i) is compared to i * fdr / (m * c(m)) with c(m) = sum 1/i;
    everything up to the largest passing rank is kept.
    """
    if not 0 < fdr < 1:
        raise BadInterval(f"fdr level must lie in (0, 1), got {fdr}")
    p = np.asarray(p_values, dtype=float)
    m = len(p)
    if m == 0:
        return np.zeros(0, dtype=bool)
    c_m = float(np.sum(1.0 / np.arange(1, m + 1)))
    order = np.argsort(p, kind="stable")
    ranks = np.arange(1, m + 1)
    passing = p[order] <= ranks * fdr / (m * c_m)
    keep = np.zeros(m, dtype=bool)
    if passing.any():
        cutoff = int(np.flatnonzero(passing)[-1]) + 1
        keep[order[:cutoff]] = True
    return keep


def _polevl(x, coef):
    """cephes polevl: Horner's rule, highest power first."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x, coef):
    """cephes p1evl: polevl with an implied leading coefficient 1."""
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: np.ndarray) -> np.ndarray:
    """cephes erfc for a >= 0 (or nan), with the libm exp scipy's build uses."""
    out = np.zeros_like(a)                    # the underflow value
    low = a < 1.0
    out[low] = 1.0 - _erf(a[low])
    square = -a * a
    high = ~low & ~(square < -_MAXLOG)
    for rows, num, den in ((high & (a < 8.0), _P, _Q), (high & ~(a < 8.0), _R, _S)):
        x = a[rows]
        e = np.fromiter(map(math.exp, square[rows]), float, len(x))
        out[rows] = e * _polevl(x, num) / _p1evl(x, den)
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal cdf: cephes ndtr, equal to scipy.special.ndtr."""
    x = a * _SQRT1_2
    z = np.abs(x)
    half = 0.5 * _erfc(z)
    y = np.where(x > 0, 1.0 - half, half)
    near = z < _SQRT1_2
    y[near] = 0.5 + 0.5 * _erf(x[near])
    return y


def _binom(n: int, k: int) -> float:
    """scipy.special.binom(n, k) for integers 0 <= k <= n / 2, k < 20: its
    multiplication formula (which rescales once the product passes 1e50,
    beyond n ~ 10**6 at k = 8)."""
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k
        den *= i
    return num / den


@lru_cache(maxsize=None)
def _exact_null(n1: int, n2: int) -> Tuple[np.ndarray, np.ndarray]:
    """pmf and cdf of U on 0..n1*n2//2 for groups n1 <= n2 (scipy's _MWU).

    Löffler's recurrence: u * f(u) = sum_{i<u} f(i) * sigma(u - i), with
    sigma(a) the sum of the divisors d <= n1 of a less the sum of its
    divisors in (n2, n1 + n2]. Counts stay uint64 until one would
    overflow, then go on in float64.
    """
    top = n1 * n2 // 2
    sigma = np.zeros(top + 1, dtype=int)
    for d in range(1, n1 + 1):
        sigma[d::d] += d
    for d in range(n2 + 1, n2 + n1 + 1):
        sigma[d::d] -= d
    counts = np.zeros(top + 1, dtype=np.uint64)
    counts[0] = 1
    uint_max = np.iinfo(np.uint64).max
    for u in range(1, top + 1):
        new = np.dot(counts[:u], sigma[u:0:-1]) / u
        if new > uint_max and counts.dtype == np.uint64:
            counts = counts.astype(float)
        counts[u] = new
    pmf = counts / _binom(n1 + n2, n1)
    cdf = np.cumsum(pmf)
    pmf.flags.writeable = cdf.flags.writeable = False
    return pmf, cdf


def _exact_sf(n1: int, n2: int, k: np.ndarray) -> np.ndarray:
    """P(U >= k) under the null, as scipy's _MWU.sf: through the symmetry of
    U, the upper tail at k is the cdf at n1*n2 - k, or one less the cdf
    plus the pmf at k where k lies below the middle."""
    pmf, cdf = _exact_null(min(n1, n2), max(n1, n2))
    kc = n1 * n2 - k
    lower = k < kc
    kc[lower] = k[lower]
    sf = cdf[kc]
    sf[lower] = 1.0 - sf[lower] + pmf[kc[lower]]
    return sf


def _rank_columns(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Average ranks (1-based) of every column and its tie term sum(t**3 - t)
    over its groups of t equal values."""
    n = len(values)
    order = np.argsort(values, axis=0)
    ordered = np.take_along_axis(values, order, axis=0)
    starts = np.ones(values.shape, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    ends = np.ones(values.shape, dtype=bool)
    ends[:-1] = starts[1:]
    at = np.arange(n)[:, None]
    first = np.maximum.accumulate(np.where(starts, at, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, at, n)[::-1], axis=0)[::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (first + last + 2) / 2, axis=0)
    size = last - first + 1
    tie_term = np.where(starts, size ** 3 - size, 0).sum(axis=0).astype(float)
    return ranks, tie_term


def _mwu_p(ranks: np.ndarray, tie_term: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Two-sided Mann-Whitney p-value of every column, rest vs the others.

    The operations of scipy's ``mannwhitneyu(x[rest], x[~rest])`` with the
    method its default picks for that one column: exact if the column has
    no ties and a group has at most EXACT_MAX_GROUP samples.
    """
    n1 = int(rest.sum())
    n2 = len(rest) - n1
    u1 = ranks[rest].sum(axis=0) - n1 * (n1 + 1) / 2
    u = np.maximum(u1, n1 * n2 - u1)
    exact = (tie_term == 0) & (min(n1, n2) <= EXACT_MAX_GROUP)
    p = np.empty(len(u))
    p[exact] = _exact_sf(n1, n2, u[exact].astype(np.int64))
    # scipy's _get_mwu_z, continuity-corrected
    n = n1 + n2
    s = np.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term[~exact] / (n * (n - 1))))
    numerator = u[~exact] - n1 * n2 / 2
    numerator -= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        z = numerator / s
    p[~exact] = _ndtr(-z)
    p *= 2
    return np.clip(p, 0.0, 1.0)


def select_features(values: np.ndarray, y: np.ndarray, fdr: float = 0.05) -> SelectionMask:
    """Mann-Whitney U + Benjamini-Yekutieli mask over the columns of an
    (n, F) feature array, against the label vector ``y``."""
    values, y = np.asarray(values, dtype=float), np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise SingleClass("feature selection needs at least 2 classes")
    if counts.min() < MIN_SAMPLES_PER_CLASS:
        raise TooFewSamples(
            f"every class needs >= {MIN_SAMPLES_PER_CLASS} samples, smallest has {counts.min()}"
        )
    if not 0 < fdr < 1:
        raise BadInterval(f"fdr level must lie in (0, 1), got {fdr}")

    p_values = np.ones(values.shape[1])
    variance = values.var(axis=0)
    tested = variance != 0
    live = values[:, tested]
    ranks, tie_term = _rank_columns(live)
    if len(classes) == 2:
        p_live = _mwu_p(ranks, tie_term, y == classes[0])
    else:
        best = np.min([_mwu_p(ranks, tie_term, y != c) for c in classes], axis=0)
        p_live = np.minimum(1.0, best * len(classes))
    p_live[np.isnan(live).any(axis=0)] = np.nan     # as scipy propagates nan
    p_values[tested] = p_live

    keep = benjamini_yekutieli(p_values, fdr)
    keep &= variance > 0
    if not keep.any():
        candidates = np.where(variance > 0, p_values, np.inf)
        if np.isfinite(candidates).any():
            keep[int(np.argmin(candidates))] = True
        else:
            keep[0] = True
    return SelectionMask(keep=keep, p_values=p_values, fdr_level=fdr)
