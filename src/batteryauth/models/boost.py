"""Multiclass boosting (SAMME) over depth-1 CART stumps, learning rate 1.

Round m fits a weighted stump, scores its weighted error e_m, assigns it
weight alpha_m = ln((1-e_m)/e_m) + ln(K-1), and upweights misclassified
samples by exp(alpha_m). Boosting stops early on a perfect stump (capped
alpha) or when a stump is no better than chance (alpha <= 0).

The seed is not used, and round m depends only on the rounds before it,
so the first n stumps and alphas of a fit at N >= n rounds are the fit
at n rounds, early stops included. ``derive`` cuts that fit out, and
``predict`` gives it bit-identical scores: its running sum adds the
alphas in stump order whatever the ensemble's length.
"""
from __future__ import annotations

import numpy as np

from .tree import NodeTable, grow_trees

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
    all_rows = [np.arange(n)]
    stumps: list = []
    alphas: list = []
    for _ in range(n_estimators):
        (stump,) = grow_trees(Xs, y, n_classes=k, samples=all_rows, criterion="gini",
                              max_depth=1, sample_weight=w)
        pred = NodeTable.from_trees([stump]).labels(Xs)[:, 0]
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
    return with_table({"stumps": stumps, "alphas": np.asarray(alphas, dtype=float)}), True


def with_table(state: dict) -> dict:
    return {**state, "table": NodeTable.from_trees(state["stumps"])}


# a fit at fewer rounds is the start of a fit at more
SHARED = ("n_estimators",)


def derive(params: dict, hp: dict) -> dict:
    """The fitted state of a fit at ``hp``, cut from a longer fit."""
    n = hp["n_estimators"]
    return with_table({"stumps": params["stumps"][:n], "alphas": params["alphas"][:n]})


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    alphas = params["alphas"]
    labels = params["table"].labels(Xs)                          # (n, stumps)
    if alphas.sum() <= 0.0:
        scores = np.zeros((len(Xs), k))
        scores[np.arange(len(Xs)), labels[:, 0]] = 1.0
        return labels[:, 0], scores
    # a running sum over the stump axis adds each class's alphas in stump order
    votes = np.where(labels[:, None, :] == np.arange(k)[:, None], alphas, 0.0)   # (n, k, stumps)
    scores = np.cumsum(votes, axis=2)[:, :, -1]
    scores = scores / scores.sum(axis=1, keepdims=True)
    return np.argmax(scores, axis=1), scores


def raw_importances(params: dict) -> np.ndarray:
    """Stump importances averaged with alpha weights (unnormalized)."""
    alphas = params["alphas"]
    total = float(alphas.sum())
    stacked = np.stack([s.importances for s in params["stumps"]])
    if total <= 0:
        return stacked.mean(axis=0)
    return (alphas[:, None] * stacked).sum(axis=0) / total
