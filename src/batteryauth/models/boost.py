"""Multiclass boosting (SAMME) over depth-1 CART stumps, learning rate 1.

Round m fits a weighted stump, scores its weighted error e_m, assigns it
weight alpha_m = ln((1-e_m)/e_m) + ln(K-1), and upweights misclassified
samples by exp(alpha_m). Boosting stops early on a perfect stump (capped
alpha) or when a stump is no better than chance (alpha <= 0).

Every round grows its stump on the same rows, and only the weights
change, so ``tree.Stumps`` sorts the features once per fit (argsort,
sorted values, distinct-value mask, one-hot class layout) and each round
only scores the splits under its weights and predicts by
``X[:, f] <= thr``. Each stump equals the one ``tree.grow_trees`` grows
on all rows at depth 1 from that round's weights, bit for bit. The kept
stumps become one table at the end of the fit, not one table per round.

The seed is not used, and round m depends only on the rounds before it,
so the first n stumps and alphas of a fit at N >= n rounds are the fit
at n rounds, early stops included. The stumps are kept, saved and walked
as one ``tree.NodeTable``, so ``derive`` takes its first n trees and
alphas, and ``predict`` gives that cut bit-identical scores: its running
sum adds the alphas in stump order whatever the ensemble's length.
"""
from __future__ import annotations

import numpy as np

from .tree import Stumps

GRID = {"n_estimators": [50, 100, 200]}
COUNTS = ("n_estimators",)
STATE = ("stumps", "alphas")

LEARNING_RATE = 1.0
# alpha for a zero-error stump: ln((1-eps)/eps) with eps = 1e-15
ALPHA_PERFECT = 34.5


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n = len(Xs)
    n_estimators = int(hp["n_estimators"])
    w = np.full(n, 1.0 / n)
    search = Stumps(Xs, y, k)
    stumps: list = []
    alphas: list = []
    for _ in range(n_estimators):
        stump, pred = search.grow(w)
        miss = pred != y
        err = float(w[miss].sum())
        if err <= 0.0:
            stumps.append(stump)
            alphas.append(ALPHA_PERFECT + np.log(max(k - 1, 1)))
            break
        alpha = LEARNING_RATE * (np.log((1.0 - err) / err) + np.log(max(k - 1, 1)))
        if alpha <= 0.0:
            if not stumps:
                # keep one stump so the model is usable; weight zero means
                # prediction falls back to its raw votes
                stumps.append(stump)
                alphas.append(0.0)
            break
        stumps.append(stump)
        alphas.append(float(alpha))
        w = w * np.exp(alpha * miss)
        w = w / w.sum()
    return {"stumps": search.table(stumps), "alphas": np.asarray(alphas, dtype=float)}, True


# a fit at fewer rounds is the start of a fit at more
SHARED = ("n_estimators",)


def derive(params: dict, hp: dict) -> dict:
    """The fitted state of a fit at ``hp``, cut from a longer fit."""
    n = hp["n_estimators"]
    return {"stumps": params["stumps"].first(n), "alphas": params["alphas"][:n]}


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    alphas = params["alphas"]
    labels = params["stumps"].labels(Xs)                         # (n, stumps)
    if alphas.sum() <= 0.0:
        return np.eye(k)[labels[:, 0]]
    # a running sum over the stump axis adds each class's alphas in stump order
    votes = np.where(labels[:, None, :] == np.arange(k)[:, None], alphas, 0.0)   # (n, k, stumps)
    scores = np.cumsum(votes, axis=2)[:, :, -1]
    return scores / scores.sum(axis=1, keepdims=True)


def raw_importances(params: dict) -> np.ndarray:
    """Stump importances averaged with alpha weights (unnormalized)."""
    alphas = params["alphas"]
    total = float(alphas.sum())
    stacked = params["stumps"].importances
    if total <= 0:
        return stacked.mean(axis=0)
    return (alphas[:, None] * stacked).sum(axis=0) / total
