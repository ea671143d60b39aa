"""Soft-margin SVM trained by sequential minimal optimization.

Multiclass is one-vs-rest: one binary machine per class, prediction by the
largest decision value. Each machine runs a deterministic SMO loop: a full
pass examines every sample; a KKT violator is paired first with the
largest-|E_i - E_j| partner, falling back to an ascending index scan. The
loop ends when a pass changes nothing (converged) or after 10*n pair
updates (returned flagged non-converged). Tolerance is 1e-3.

gamma "scale" resolves to 1/(d * var(X)) over the standardized training
matrix. Scores are the one-vs-rest decision margins, not probabilities
(no probability model is fitted); a two-class model has one machine, and
class 0 scores its negated margin.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, UnsupportedKind
from .neighbors import squared_distances

TOL = 1e-3
UPDATE_CAP_FACTOR = 10
_MIN_STEP = 1e-8
_SV_CUTOFF = 1e-12

GRID = {"kernel": ["linear", "rbf"], "C": [0.1, 1.0, 10.0], "gamma": ["scale", 0.01, 0.1]}
STATE = ("machines", "gamma_value")


def check(hp: dict) -> None:
    if float(hp["C"]) <= 0:
        raise ConfigError("SVM.C must be > 0")


def _kernel(a: np.ndarray, b: np.ndarray, kind: str, gamma: float) -> np.ndarray:
    if kind == "linear":
        return a @ b.T
    if kind == "rbf":
        return np.exp(-gamma * squared_distances(a, b))
    raise UnsupportedKind(f"unknown SVM kernel {kind!r}")


def _take_step(i, j, alpha, t, E, b, K, C):
    """One SMO pair update; returns the new b or None if no progress."""
    eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
    if eta <= 0:
        return None
    if t[i] == t[j]:
        lo = max(0.0, alpha[i] + alpha[j] - C)
        hi = min(C, alpha[i] + alpha[j])
    else:
        lo = max(0.0, alpha[j] - alpha[i])
        hi = min(C, C + alpha[j] - alpha[i])
    if lo >= hi:
        return None
    aj_old, ai_old = alpha[j], alpha[i]
    aj = min(max(aj_old + t[j] * (E[i] - E[j]) / eta, lo), hi)
    if abs(aj - aj_old) < _MIN_STEP:
        return None
    ai = ai_old + t[i] * t[j] * (aj_old - aj)
    d_i = t[i] * (ai - ai_old)
    d_j = t[j] * (aj - aj_old)
    b1 = b - E[i] - d_i * K[i, i] - d_j * K[i, j]
    b2 = b - E[j] - d_i * K[i, j] - d_j * K[j, j]
    if 0.0 < ai < C:
        b_new = b1
    elif 0.0 < aj < C:
        b_new = b2
    else:
        b_new = 0.5 * (b1 + b2)
    E += d_i * K[:, i] + d_j * K[:, j] + (b_new - b)
    alpha[i], alpha[j] = ai, aj
    return b_new


def _smo(K: np.ndarray, t: np.ndarray, C: float):
    n = len(t)
    alpha = np.zeros(n)
    b = 0.0
    E = -t.astype(float)
    cap = UPDATE_CAP_FACTOR * n
    updates = 0
    while True:
        changed = 0
        for i in range(n):
            r = E[i] * t[i]
            if not ((r < -TOL and alpha[i] < C) or (r > TOL and alpha[i] > 0)):
                continue
            gaps = np.abs(E - E[i])
            gaps[i] = -1.0
            first = int(np.argmax(gaps))
            stepped = None
            b_new = _take_step(i, first, alpha, t, E, b, K, C)
            if b_new is not None:
                stepped = b_new
            else:
                for j in range(n):
                    if j == i or j == first:
                        continue
                    b_new = _take_step(i, j, alpha, t, E, b, K, C)
                    if b_new is not None:
                        stepped = b_new
                        break
            if stepped is not None:
                b = stepped
                changed += 1
                updates += 1
                if updates >= cap:
                    return alpha, b, False
        if changed == 0:
            return alpha, b, True


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    C = float(hp["C"])
    kernel = hp["kernel"]
    gamma = hp["gamma"]
    if gamma == "scale":
        total_var = float(Xs.var())
        gamma_value = 1.0 / (d * total_var) if total_var > 0 else 1.0 / d
    else:
        gamma_value = float(gamma)
    K = _kernel(Xs, Xs, kernel, gamma_value)
    machine_classes = [1] if k == 2 else list(range(k))
    machines = []
    converged = True
    for c in machine_classes:
        t = np.where(y == c, 1.0, -1.0)
        alpha, b, ok = _smo(K, t, C)
        converged &= ok
        sv = alpha > _SV_CUTOFF
        machines.append(
            {
                "class_id": c,
                "sv": Xs[sv].copy(),
                "coef": (alpha[sv] * t[sv]).copy(),
                "b": float(b),
            }
        )
    return {"machines": machines, "gamma_value": gamma_value}, converged


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    out = np.full((len(Xs), k), -np.inf)
    for m in params["machines"]:
        if len(m["sv"]):
            kk = _kernel(Xs, m["sv"], hp["kernel"], params["gamma_value"])
            f = kk @ m["coef"] + m["b"]
        else:
            f = np.full(len(Xs), m["b"])
        out[:, m["class_id"]] = f
    if k == 2:
        out[:, 0] = -out[:, 1]
    return np.argmax(out, axis=1), out
