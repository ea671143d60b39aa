"""Single CART decision tree (all features considered at every split).

The tree is a batch of one for the lockstep engine (``tree.grow_trees``)
and predicts through a one-tree ``tree.NodeTable``, whose node ids are
the tree's own. A fit at a smaller ``max_depth`` is the fit at a larger
one cut at that depth (``tree.cut``), so grid search fits each criterion
once per fold and derives the other depths from it.
"""
from __future__ import annotations

import numpy as np

from .tree import NodeTable, cut, grow_trees

GRID = {"criterion": ["gini", "entropy"], "max_depth": [4, 8, 16, None]}
COUNTS = ("max_depth",)
STATE = ("tree",)


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    max_depth = hp.get("max_depth")
    (tree,) = grow_trees(
        Xs,
        y,
        n_classes=k,
        samples=[np.arange(len(Xs))],
        criterion=hp["criterion"],
        max_depth=None if max_depth is None else int(max_depth),
    )
    return with_table({"tree": tree}), True


def with_table(state: dict) -> dict:
    return {**state, "table": NodeTable.from_trees([state["tree"]])}


# a fit at a smaller max_depth is a fit at a larger one, cut
SHARED = ("max_depth",)


def derive(params: dict, hp: dict) -> dict:
    """State that predicts as the fit at ``hp``, from a fit at a larger
    ``max_depth`` (None is unlimited) on the same data."""
    max_depth = hp.get("max_depth")
    if max_depth is None:
        return params
    return with_table({"tree": cut(params["tree"], int(max_depth))})


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    counts = params["tree"].counts[params["table"].apply(Xs)[:, 0]]
    totals = counts.sum(axis=1, keepdims=True)
    scores = counts / np.where(totals > 0, totals, 1.0)
    return np.argmax(counts, axis=1), scores


def raw_importances(params: dict) -> np.ndarray:
    return params["tree"].importances.copy()
