"""k-nearest neighbors on standardized features (Euclidean metric).

The model stores its training matrix. Neighbor order breaks distance
ties by training index (stable argsort), and a vote tie goes to the
lowest class id, as every label tie does. With distance weighting, an
exact match (distance zero) outvotes everything else. Predict votes for
all rows at once. The fit does not depend on (k, weights), so grid
search fits once per fold and scores every (k, weights) on that fit.
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


def check_state(params: dict, k: int) -> None:
    """Refuse a loaded state unless it holds one class id in [0, k) per
    training row."""
    train_y = params["train_y"]
    if (train_y.dtype.kind not in "iu" or train_y.shape != params["train_x"].shape[:1]
            or not ((train_y >= 0) & (train_y < k)).all()):
        raise ValueError(f"train_y must hold one class id in [0, {k}) per row of train_x")


# the fit stores the training data whatever (k, weights) is
SHARED = ("k", "weights")


def derive(params: dict, hp: dict) -> dict:
    return params


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    weights = hp["weights"]
    train_x, train_y = params["train_x"], params["train_y"]
    kk = min(int(hp["k"]), len(train_x))
    dists = np.sqrt(squared_distances(Xs, train_x))
    rows = np.arange(len(Xs))[:, None]
    order = np.argsort(dists, axis=1, kind="stable")[:, :kk]
    nd = dists[rows, order]
    w = None
    if weights != "uniform":
        # a row with an exact match counts its exact matches only
        exact = nd == 0
        w = np.where(exact.any(axis=1, keepdims=True), exact, 1.0 / np.where(exact, 1.0, nd)).ravel()
    # one bincount over (row, class) cells adds each cell's votes in
    # neighbour order, as a bincount per row does
    cells = (rows * k + train_y[order]).ravel()
    votes = np.bincount(cells, weights=w, minlength=len(Xs) * k).astype(float, copy=False)
    votes = votes.reshape(-1, k)
    return votes / votes.sum(axis=1, keepdims=True)
