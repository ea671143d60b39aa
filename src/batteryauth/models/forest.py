"""Random forest: bootstrapped CART trees voting by majority.

Each tree draws its bootstrap sample and its per-split feature subsets
(sqrt of the feature count) from an RNG stream derived from (seed, tree
index), so training order and thread count cannot change the result.
All trees grow in lockstep through one engine (``tree.grow_trees``): a
tree's rows are its bootstrap indices into the shared matrix, and its
feature subsets are drawn in its own pre-order, so every tree equals the
one it would be grown alone. Predict walks the forest's node table
(``tree.NodeTable``, rebuilt at load, never saved) for all trees at once
and counts the leaf labels as votes.
The `bootstrap` flag exists as a test hook; with it off and a single tree
the forest degenerates to a plain decision tree.
"""
from __future__ import annotations

import numpy as np

from ..seeding import rng_from
from .tree import NodeTable, grow_trees

GRID = {"criterion": ["gini", "entropy"], "n_estimators": [100, 200]}
COUNTS = ("n_estimators",)
STATE = ("trees",)


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    bootstrap = bool(hp.get("bootstrap", True))
    rngs = [rng_from(seed, "tree", t) for t in range(int(hp["n_estimators"]))]
    samples = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    trees = grow_trees(
        Xs,
        y,
        n_classes=k,
        samples=samples,
        criterion=hp["criterion"],
        max_features=max(1, int(round(np.sqrt(d)))),
        rngs=rngs,
    )
    return with_table({"trees": trees}), True


def with_table(state: dict) -> dict:
    return {**state, "table": NodeTable.from_trees(state["trees"])}


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    labels = params["table"].labels(Xs)                          # (n, trees)
    votes = (labels[:, :, None] == np.arange(k)).sum(axis=1).astype(float)
    scores = votes / votes.sum(axis=1, keepdims=True)
    return np.argmax(votes, axis=1), scores


def raw_importances(params: dict) -> np.ndarray:
    """Per-feature impurity-decrease sums averaged over trees (unnormalized)."""
    stacked = np.stack([tree.importances for tree in params["trees"]])
    return stacked.mean(axis=0)
