"""Quadratic discriminant analysis with shrinkage regularization.

Per-class Gaussian with covariance Sigma_reg = (1-r)*Sigma + r*(tr(Sigma)/d)*I,
i.e. shrinkage toward a scaled identity. r=0 on a singular class covariance
raises SingularCovariance with a hint to raise r.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, SingularCovariance
from .neural import softmax

GRID = {"reg": [0.0, 0.1, 0.5]}
STATE = ("means", "chols", "log_dets", "log_priors")


def check(hp: dict) -> None:
    if not 0 <= float(hp["reg"]) <= 1:
        raise ConfigError("QDA.reg must lie in [0, 1]")


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    r = float(hp["reg"])
    means = np.zeros((k, d))
    chols = np.zeros((k, d, d))
    log_dets = np.zeros(k)
    counts = np.zeros(k)
    for c in range(k):
        rows = Xs[y == c]
        counts[c] = len(rows)
        means[c] = rows.mean(axis=0)
        if len(rows) > 1:
            cov = np.cov(rows, rowvar=False, ddof=1).reshape(d, d)
        else:
            cov = np.zeros((d, d))
        reg = (1.0 - r) * cov + r * (np.trace(cov) / d) * np.eye(d)
        try:
            chol = np.linalg.cholesky(reg)
        except np.linalg.LinAlgError:
            hint = "raise reg above 0" if r == 0 else "class covariance is degenerate"
            raise SingularCovariance(
                f"class {c} covariance not positive definite at reg={r}; {hint}"
            )
        chols[c] = chol
        log_dets[c] = 2.0 * float(np.log(np.diag(chol)).sum())
    log_priors = np.log(counts / n)
    return {
        "means": means,
        "chols": chols,
        "log_dets": log_dets,
        "log_priors": log_priors,
    }, True


def log_posteriors(params: dict, Xs: np.ndarray) -> np.ndarray:
    # numpy has no triangular solve; importing here keeps scipy out of
    # every process that never scores a QDA model
    from scipy.linalg import solve_triangular

    k, d = params["means"].shape
    out = np.zeros((len(Xs), k))
    for c in range(k):
        diff = (Xs - params["means"][c]).T  # (d, n)
        solved = solve_triangular(params["chols"][c], diff, lower=True)
        maha = np.square(solved).sum(axis=0)
        out[:, c] = (
            params["log_priors"][c]
            - 0.5 * params["log_dets"][c]
            - 0.5 * maha
            - 0.5 * d * np.log(2.0 * np.pi)
        )
    return out


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    logpost = log_posteriors(params, Xs)
    return np.argmax(logpost, axis=1), softmax(logpost)

