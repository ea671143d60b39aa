"""Random forest: bootstrapped CART trees voting by majority.

A fit draws from one RNG stream, derived from (seed, "forest"): first
every tree's bootstrap sample in one call, then the per-split feature
subsets (sqrt of the feature count). All trees grow together through one
engine (``tree.grow_trees``), which draws the subsets of each step's
nodes in record order, so training order and thread count cannot change
the result. A tree's rows are its bootstrap indices into the shared
matrix. The forest is kept, saved and walked as one ``tree.NodeTable``;
predict walks all trees at once and counts the leaf labels as votes.
"""
from __future__ import annotations

import numpy as np

from ..seeding import rng_from
from .tree import grow_trees

GRID = {"criterion": ["gini", "entropy"], "n_estimators": [100, 200]}
COUNTS = ("n_estimators",)
STATE = ("trees",)


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    rng = rng_from(seed, "forest")
    samples = rng.integers(0, n, size=(int(hp["n_estimators"]), n))
    trees = grow_trees(
        Xs,
        y,
        n_classes=k,
        samples=samples,
        criterion=hp["criterion"],
        max_features=max(1, int(round(np.sqrt(d)))),
        rng=rng,
    )
    return {"trees": trees}, True


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    labels = params["trees"].labels(Xs)                          # (n, trees)
    votes = (labels[:, :, None] == np.arange(k)).sum(axis=1).astype(float)
    return votes / votes.sum(axis=1, keepdims=True)


def raw_importances(params: dict) -> np.ndarray:
    """Per-feature impurity-decrease sums averaged over trees (unnormalized)."""
    return params["trees"].importances.mean(axis=0)
