"""Soft-margin SVM trained by sequential minimal optimization.

Multiclass is one-vs-rest: one binary machine per class, prediction by the
largest decision value. Each machine solves the dual, minimize
1/2 alpha'Q alpha - sum(alpha) with Q_ij = t_i t_j K_ij, 0 <= alpha <= C
and t'alpha = 0, and keeps its gradient G. I_up holds the alpha_i that can
still move in the direction t_i, I_low those that can move against it.
Each step updates one pair, chosen by the second-order rule WSS2 of Fan,
Chen & Lin (JMLR 6, 2005), as LIBSVM uses it: i maximizes -t*G over I_up;
j, among the j in I_low with b_ij = -t_i G_i + t_j G_j > 0, minimizes
-b_ij^2 / a_ij, where a_ij = K_ii + K_jj - 2 K_ij is clamped at TAU. The
pair takes the Newton step b_ij / a_ij along t'alpha = 0, clipped at the
box, and G is updated from the two kernel columns. The loop stops when the
maximal violating pair's gap m - M (the largest -t*G over I_up less the
smallest over I_low) is below TOL = 1e-3, or after MAX_ITER steps, which
is returned flagged non-converged. The bias is the mean of -t*G over the
free support vectors; with none it is the midpoint of m and M, or the one
of them that exists when I_up or I_low is empty (a one-class machine).

gamma "scale" resolves to 1/(d * var(X)) over the standardized training
matrix. The state stores each support vector once, as LIBSVM does (Chang
& Lin, ACM TIST 2(3), 2011): ``sv`` holds the training rows that any
machine uses, in training order, ``coef`` is an (m, len(sv)) matrix of
alpha * t, 0 where a row is not one of that machine's support vectors,
and ``b`` the m biases. A two-class model has one machine, for class 1;
otherwise machine c is class c's. Predict is one kernel block and one
product, ``K(X, sv) @ coef.T + b``. Scores are the one-vs-rest decision
margins, not probabilities (no probability model is fitted); with two
classes, class 0 scores the negated margin.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, UnsupportedKind
from .neighbors import squared_distances

TOL = 1e-3
TAU = 1e-12
MAX_ITER = 100_000
_SV_CUTOFF = 1e-12

GRID = {"kernel": ["linear", "rbf"], "C": [0.1, 1.0, 10.0], "gamma": ["scale", 0.01, 0.1]}
STATE = ("sv", "coef", "b", "gamma_value")


def check(hp: dict) -> None:
    if not float(hp["C"]) > 0:
        raise ConfigError("SVM.C must be > 0")
    if hp["gamma"] != "scale" and not float(hp["gamma"]) > 0:
        raise ConfigError(f"SVM.gamma must be 'scale' or a number > 0, got {hp['gamma']!r}")


def check_state(params: dict, k: int) -> None:
    """Refuse a loaded state whose kernel width is not a number > 0."""
    gamma = params["gamma_value"]
    if not (isinstance(gamma, float) and gamma > 0):
        raise ValueError(f"gamma_value must be a number > 0, got {gamma!r}")


def _kernel(a: np.ndarray, b: np.ndarray, kind: str, gamma: float) -> np.ndarray:
    if kind == "linear":
        return a @ b.T
    if kind == "rbf":
        return np.exp(-gamma * squared_distances(a, b))
    raise UnsupportedKind(f"unknown SVM kernel {kind!r}")


def _smo(K: np.ndarray, t: np.ndarray, C: float):
    """One machine's dual solution: (alpha, bias, whether the gap closed)."""
    alpha = np.zeros(len(t))
    G = -np.ones(len(t))
    diag = np.diag(K)
    pos = t > 0
    for step in range(MAX_ITER + 1):
        v = -t * G
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        i = int(np.argmax(np.where(up, v, -np.inf)))
        converged = bool(v[i] - np.min(v, where=low, initial=np.inf) < TOL)
        if converged or step == MAX_ITER:
            break
        gain = v[i] - v
        curv = np.maximum(diag[i] + diag - 2.0 * K[i], TAU)
        j = int(np.argmin(np.where(low & (gain > 0), -gain * gain / curv, np.inf)))
        # alpha_i moves by t_i * lam and alpha_j by -t_j * lam, which keeps
        # t'alpha; lam stops at the Newton step or where one meets its bound,
        # and one that meets it is set to it (a + (C - a) can round off C)
        ti, tj, ai, aj = t[i], t[j], alpha[i], alpha[j]
        end_i = C if ti > 0 else 0.0
        end_j = 0.0 if tj > 0 else C
        room_i, room_j = ti * (end_i - ai), tj * (aj - end_j)
        lam = min(gain[j] / curv[j], room_i, room_j)
        alpha[i] = end_i if room_i <= lam else ai + ti * lam
        alpha[j] = end_j if room_j <= lam else aj - tj * lam
        G += t * ((alpha[i] - ai) * ti * K[:, i] + (alpha[j] - aj) * tj * K[:, j])
    free = up & low
    if free.any():
        b = v[free].mean()
    else:
        b = np.mean([end(v[side]) for end, side in ((np.max, up), (np.min, low)) if side.any()])
    return alpha, float(b), converged


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
    coef, b, converged = [], [], True
    for c in [1] if k == 2 else range(k):
        t = np.where(y == c, 1.0, -1.0)
        alpha, bias, ok = _smo(K, t, C)
        coef.append(np.where(alpha > _SV_CUTOFF, alpha * t, 0.0))
        b.append(bias)
        converged &= ok
    coef = np.array(coef)
    used = coef.any(axis=0)
    state = {"sv": Xs[used], "coef": coef[:, used], "b": np.array(b), "gamma_value": gamma_value}
    return state, converged


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    kk = _kernel(Xs, params["sv"], hp["kernel"], params["gamma_value"])
    f = kk @ params["coef"].T + params["b"]
    if k == 2:
        f = np.hstack([-f, f])
    return np.argmax(f, axis=1), f
