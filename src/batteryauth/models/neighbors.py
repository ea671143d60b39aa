"""k-nearest neighbors on standardized features (Euclidean metric).

The model stores its training matrix. Neighbor order breaks distance
ties by training index (stable argsort), and uniform voting breaks vote
ties by the lowest class id. With distance weighting, an exact match
(distance zero) outvotes everything else.
"""
from __future__ import annotations

import numpy as np

# Cap on the (features, rows, train rows) difference block built at once:
# an 800-row SVM kernel on 137 features would otherwise take 700 MB.
_BLOCK_VALUES = 1 << 20

GRID = {"k": [1, 3, 5, 9], "weights": ["uniform", "distance"]}
COUNTS = ("k",)
STATE = ("train_x", "train_y")


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, (len(a), len(b)).

    Difference form: the squared differences are added feature by feature
    in index order, as a plain loop would (a reduction over the leading
    axis of a C-ordered block adds rows in order). Distances are then
    bit-identical to scipy's cdist, and a row equal to a training row is
    at distance exactly 0. The expanded form |a|^2 + |b|^2 - 2ab is not
    used: it loses both properties.
    """
    out = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_VALUES // max(1, b.size))
    for start in range(0, len(a), step):
        rows = a[start : start + step]
        diff = np.subtract(rows.T[:, :, None], b.T[:, None, :], order="C")
        np.square(diff, out=diff)
        diff.sum(axis=0, out=out[start : start + step])
    return out


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    return {"train_x": Xs.copy(), "train_y": y.copy()}, True


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    kk = int(hp["k"])
    weights = hp["weights"]
    train_x, train_y = params["train_x"], params["train_y"]
    kk = min(kk, len(train_x))
    dists = np.sqrt(squared_distances(Xs, train_x))
    scores = np.zeros((len(Xs), k))
    for i in range(len(Xs)):
        order = np.argsort(dists[i], kind="stable")[:kk]
        nd = dists[i][order]
        ny = train_y[order]
        if weights == "uniform":
            vote = np.bincount(ny, minlength=k).astype(float)
        else:
            if (nd == 0).any():
                vote = np.bincount(ny[nd == 0], minlength=k).astype(float)
            else:
                vote = np.bincount(ny, weights=1.0 / nd, minlength=k)
        scores[i] = vote / vote.sum()
    return np.argmax(scores, axis=1), scores

