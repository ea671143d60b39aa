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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import BadInterval, SingleClass, TooFewSamples
from .features import FeatureMatrix, labels_for

MIN_SAMPLES_PER_CLASS = 5
EXACT_MAX_GROUP = 8


@dataclass(frozen=True, eq=False)
class SelectionMask:
    keep: np.ndarray          # bool per catalog entry
    p_values: np.ndarray
    fdr_level: float

    @property
    def kept_count(self) -> int:
        return int(self.keep.sum())


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


def _mwu_p(values: np.ndarray, group1: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """Two-sided Mann-Whitney p-value of every column, rest vs group1.

    Columns go to scipy in one batched call per method. scipy's automatic
    choice looks for ties across a whole batch, so the method is chosen
    here per column instead: the same choice a one-column call makes.
    """
    from scipy.stats import mannwhitneyu

    x1 = values[group1]
    x0 = values[~group1]
    exact = ~tied & (min(len(x0), len(x1)) <= EXACT_MAX_GROUP)
    p = np.empty(values.shape[1])
    for cols, method in ((~exact, "asymptotic"), (exact, "exact")):
        if cols.any():
            p[cols] = mannwhitneyu(
                x0[:, cols], x1[:, cols], alternative="two-sided", method=method
            ).pvalue
    return p


def select_features(
    matrix: Union[FeatureMatrix, np.ndarray],
    target: Union[str, np.ndarray] = "model",
    fdr: float = 0.05,
) -> SelectionMask:
    """Mann-Whitney U + Benjamini-Yekutieli mask over the catalog features.

    `matrix` may be a FeatureMatrix (with target "model"/"architecture")
    or a plain (n, F) array with an explicit label vector as `target`.
    """
    if isinstance(matrix, FeatureMatrix):
        values = matrix.values
        y = labels_for(matrix, target)[0] if isinstance(target, str) else np.asarray(target)
    else:
        if isinstance(target, str):
            raise SingleClass("a plain array needs an explicit label vector")
        values, y = np.asarray(matrix, dtype=float), np.asarray(target)
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
    ordered = np.sort(live, axis=0)
    tied = (ordered[1:] == ordered[:-1]).any(axis=0)
    if len(classes) == 2:
        p_values[tested] = _mwu_p(live, y == classes[1], tied)
    else:
        best = np.min([_mwu_p(live, y == c, tied) for c in classes], axis=0)
        p_values[tested] = np.minimum(1.0, best * len(classes))

    keep = benjamini_yekutieli(p_values, fdr)
    keep &= variance > 0
    if not keep.any():
        candidates = np.where(variance > 0, p_values, np.inf)
        if np.isfinite(candidates).any():
            keep[int(np.argmin(candidates))] = True
        else:
            keep[0] = True
    return SelectionMask(keep=keep, p_values=p_values, fdr_level=fdr)
