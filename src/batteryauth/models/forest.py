"""Random forest: bootstrapped CART trees voting by majority.

Each tree draws its bootstrap sample and its per-split feature subsets
(sqrt of the feature count) from an RNG stream derived from (seed, tree
index; ``seeding.rngs_from`` derives all of them in one pass), so training
order and thread count cannot change the result.
All trees grow in lockstep through one engine (``tree.grow_trees``): a
tree's rows are its bootstrap indices into the shared matrix, and its
feature subsets are drawn in its own pre-order, so every tree equals the
one it would be grown alone. The forest is kept, saved and walked as one
``tree.NodeTable``; predict walks all trees at once and counts the leaf
labels as votes.
"""
from __future__ import annotations

import numpy as np

from ..seeding import rngs_from
from .tree import grow_trees

GRID = {"criterion": ["gini", "entropy"], "n_estimators": [100, 200]}
COUNTS = ("n_estimators",)
STATE = ("trees",)


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    rngs = rngs_from(seed, "tree", count=int(hp["n_estimators"]))
    samples = [rng.integers(0, n, size=n) for rng in rngs]
    trees = grow_trees(
        Xs,
        y,
        n_classes=k,
        samples=samples,
        criterion=hp["criterion"],
        max_features=max(1, int(round(np.sqrt(d)))),
        rngs=rngs,
    )
    return {"trees": trees}, True


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    labels = params["trees"].labels(Xs)                          # (n, trees)
    votes = (labels[:, :, None] == np.arange(k)).sum(axis=1).astype(float)
    scores = votes / votes.sum(axis=1, keepdims=True)
    return np.argmax(votes, axis=1), scores


def raw_importances(params: dict) -> np.ndarray:
    """Per-feature impurity-decrease sums averaged over trees (unnormalized)."""
    return params["trees"].importances.mean(axis=0)
