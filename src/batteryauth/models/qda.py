"""Quadratic discriminant analysis with shrinkage regularization.

Per-class Gaussian with covariance Sigma_reg = (1-r)*Sigma + r*(tr(Sigma)/d)*I,
i.e. shrinkage toward a scaled identity. r=0 on a singular class covariance
raises SingularCovariance with a hint to raise r. Each class keeps its
inverse Cholesky factor W = L^-1 (``whiten``), so scoring is one stacked
product: z = (x - mean) W^T, Mahalanobis distance sum(z^2).
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, SingularCovariance
from .neural import softmax

GRID = {"reg": [0.0, 0.1, 0.5]}
STATE = ("means", "whiten", "log_dets", "log_priors")


def check(hp: dict) -> None:
    if not 0 <= float(hp["reg"]) <= 1:
        raise ConfigError("QDA.reg must lie in [0, 1]")


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 of each lower-triangular matrix in the stack L, by 2x2 blocks,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], down to
    leaves at most 32 wide."""
    d = L.shape[-1]
    if d <= 32:
        return np.tril(np.linalg.inv(L))
    h = d // 2
    W = np.zeros_like(L)
    W[..., :h, :h] = A = _inverse_lower(L[..., :h, :h])
    W[..., h:, h:] = C = _inverse_lower(L[..., h:, h:])
    W[..., h:, :h] = -(C @ L[..., h:, :h]) @ A
    return W


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
    whiten = _inverse_lower(chols)
    return {"means": means, "whiten": whiten, "log_dets": log_dets, "log_priors": log_priors}, True


def log_posteriors(params: dict, Xs: np.ndarray) -> np.ndarray:
    d = params["means"].shape[1]
    z = (Xs - params["means"][:, None, :]) @ params["whiten"].transpose(0, 2, 1)  # (k, n, d)
    maha = np.square(z).sum(axis=2).T
    return params["log_priors"] - 0.5 * params["log_dets"] - 0.5 * maha - 0.5 * d * np.log(2.0 * np.pi)


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    logpost = log_posteriors(params, Xs)
    return np.argmax(logpost, axis=1), softmax(logpost)

