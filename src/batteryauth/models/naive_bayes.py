"""Gaussian naive Bayes with variance smoothing.

Per-class feature means and population variances; every variance gets
var_smoothing times the largest per-feature variance of the whole
training set added, which keeps likelihoods finite on near-constant
features. Scores are normalized posteriors.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .neural import softmax

_VAR_FLOOR = 1e-300

GRID = {"var_smoothing": [1e-9, 1e-7, 1e-5]}
STATE = ("means", "variances", "log_priors")


def check(hp: dict) -> None:
    if not float(hp["var_smoothing"]) >= 0:
        raise ConfigError("GaussianNB.var_smoothing must be >= 0")


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    vs = float(hp["var_smoothing"])
    means = np.zeros((k, d))
    variances = np.zeros((k, d))
    counts = np.zeros(k)
    for c in range(k):
        rows = Xs[y == c]
        counts[c] = len(rows)
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0)
    epsilon = vs * float(Xs.var(axis=0).max())
    variances = np.maximum(variances + epsilon, _VAR_FLOOR)
    log_priors = np.log(counts / n)
    return {"means": means, "variances": variances, "log_priors": log_priors}, True


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    means, variances = params["means"], params["variances"]
    # (n, k): sum over features of the Gaussian log pdf
    diff = Xs[:, None, :] - means[None, :, :]
    ll = -0.5 * (np.log(2.0 * np.pi * variances)[None] + diff**2 / variances[None]).sum(axis=2)
    return softmax(ll + params["log_priors"][None, :])

